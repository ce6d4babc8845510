"""Partition combinatorics: enumeration, orderings, and scalar statistics."""

import itertools
from math import factorial

import numpy as np
import pytest

from zonalpoly.partitions import (
    _hook_product,
    _partitions_capped,
    Partition,
    conjugate,
    partitions_of,
    rho,
    sym_group_degree,
)
from zonalpoly.zonal import zonal_at_identity

from oracles import dominated_by


class TestPartitionType:
    def test_valid_construction(self):
        p = Partition((3, 1))
        assert tuple(p) == (3, 1)
        assert p.weight == 4
        assert Partition(p) is p

    def test_empty_partition_is_valid(self):
        p = Partition()
        assert p.weight == 0
        assert len(p) == 0

    def test_rejects_increasing_parts(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            Partition((2, 0))
        with pytest.raises(ValueError):
            Partition((-1,))

    @pytest.mark.parametrize("parts", [(2.7, 1.2), (1.9,), (2.0, 1), (3, "1")])
    def test_rejects_non_integer_parts(self, parts):
        # int() would truncate (2.7, 1.2) to (2, 1)
        with pytest.raises(ValueError, match="integers"):
            Partition(parts)

    def test_non_integer_part_reaches_no_closed_form(self):
        with pytest.raises(ValueError):
            zonal_at_identity((1.9,), 3)

    def test_accepts_numpy_integer_parts(self):
        p = Partition((np.int64(3), np.int32(1)))
        assert p == (3, 1)
        assert all(type(x) is int for x in p)

    def test_doubled(self):
        assert Partition((3, 1)).doubled() == (6, 2)

    def test_hashable_and_tuple_compatible(self):
        assert Partition((2, 1)) == (2, 1)
        assert {Partition((2, 1)): 1}[(2, 1)] == 1


class TestEnumeration:
    def test_zero_gives_empty_partition(self):
        assert partitions_of(0) == (Partition(),)

    def test_counts_for_small_degrees(self):
        assert [len(partitions_of(f)) for f in range(7)] == [1, 1, 2, 3, 5, 7, 11]

    def test_degree_four_order(self):
        assert [tuple(p) for p in partitions_of(4)] == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    @pytest.mark.parametrize("f", range(1, 9))
    def test_descending_lexicographic(self, f):
        parts = partitions_of(f)
        assert parts[0] == (f,)
        assert parts[-1] == (1,) * f
        for a, b in zip(parts, parts[1:]):
            assert tuple(a) > tuple(b)

    @pytest.mark.parametrize("f", range(9))
    def test_each_partition_once_with_right_weight(self, f):
        parts = partitions_of(f)
        assert len(set(parts)) == len(parts)
        assert all(p.weight == f for p in parts)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            partitions_of(-1)

    @pytest.mark.parametrize("f", range(16))
    def test_capped_keeps_the_partitions_with_at_most_n_parts(self, f):
        for n in range(f + 2):
            capped = _partitions_capped(f, n)
            assert capped == tuple(p for p in partitions_of(f) if len(p) <= n)
            assert all(type(p) is Partition for p in capped)

    def test_capped_enumerates_only_what_it_keeps(self):
        assert len(_partitions_capped(30, 3)) == 91
        assert _partitions_capped(5, 0) == ()
        assert _partitions_capped(0, 0) == (Partition(),)


class TestDominance:
    def test_single_row_dominates_everything(self):
        assert dominated_by((2, 1), (3,))

    def test_all_ones_is_minimum(self):
        assert dominated_by((1, 1, 1), (2, 1))

    def test_incomparable_pair(self):
        assert not dominated_by((3, 3), (4, 1, 1))
        assert not dominated_by((4, 1, 1), (3, 3))

    def test_weight_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            dominated_by((2,), (2, 1))

    @pytest.mark.parametrize("f", range(1, 9))
    def test_partial_order_axioms(self, f):
        parts = partitions_of(f)
        for p in parts:
            assert dominated_by(p, p)
        for a, b in itertools.permutations(parts, 2):
            if dominated_by(a, b) and dominated_by(b, a):
                pytest.fail(f"antisymmetry violated by {a} and {b}")
        for a, b, c in itertools.product(parts, repeat=3):
            if dominated_by(a, b) and dominated_by(b, c):
                assert dominated_by(a, c)


class TestConjugate:
    def test_examples(self):
        assert conjugate((3, 1)) == (2, 1, 1)
        assert conjugate((1, 1, 1)) == (3,)
        assert conjugate((2, 2)) == (2, 2)
        assert conjugate(()) == ()

    @pytest.mark.parametrize("f", range(9))
    def test_involution(self, f):
        for p in partitions_of(f):
            assert conjugate(conjugate(p)) == p

    @pytest.mark.parametrize("f", range(13))
    def test_columns_count_the_parts_above_them(self, f):
        for p in partitions_of(f):
            conj = conjugate(tuple(p))
            assert type(conj) is Partition
            assert conj == tuple(sum(1 for q in p if q > j) for j in range(p[0] if p else 0))

    def test_rejects_a_non_partition(self):
        with pytest.raises(ValueError):
            conjugate((1, 3))


class TestRho:
    def test_examples(self):
        assert rho((2,)) == 2
        assert rho((1, 1)) == -1
        assert rho((2,)) - rho((1, 1)) == 3
        assert rho(()) == 0

    def test_equal_rho_for_incomparable_pair(self):
        assert rho((3, 3)) == 9
        assert rho((4, 1, 1)) == 9

    def test_components_match(self):
        # rho is the sum of squared parts less the row-weighted sum of parts
        for p in partitions_of(6):
            squares = sum(q * q for q in p)
            weighted = sum(i * q for i, q in enumerate(p, 1))
            assert rho(p) == squares - weighted

    def test_denominator_expression(self):
        # the recursion denominator written out in full must equal the rho gap
        f, g = Partition((3, 1)), Partition((2, 2))
        denom = (
            sum(q * q for q in f)
            - sum(q * q for q in g)
            + sum(i * q for i, q in enumerate(g, 1))
            - sum(i * q for i, q in enumerate(f, 1))
        )
        assert denom == rho(f) - rho(g)

    @pytest.mark.parametrize("f", range(1, 9))
    def test_strict_dominance_gap_positive(self, f):
        parts = partitions_of(f)
        for top in parts:
            for low in parts:
                if low != top and dominated_by(low, top):
                    assert rho(top) - rho(low) > 0


class TestHookProduct:
    def test_by_hand(self):
        # (3, 1): the cells (arm, leg) are (2, 1), (1, 0), (0, 0) and (0, 0)
        p = Partition((3, 1))
        assert _hook_product(p, 1, 1) == 4 * 2 * 1 * 1
        assert _hook_product(p, 2, 1) == 6 * 3 * 1 * 1
        assert _hook_product(p, 2, 2) == 7 * 4 * 2 * 2

    @pytest.mark.parametrize("f", range(1, 9))
    def test_matches_cells_counted_from_the_parts(self, f):
        for p in partitions_of(f):
            cells = [
                (row - j - 1, sum(1 for below in p[i + 1 :] if below > j))
                for i, row in enumerate(p)
                for j in range(row)
            ]
            for alpha, shift in ((1, 1), (2, 1), (2, 2)):
                want = 1
                for arm, leg in cells:
                    want *= alpha * arm + leg + shift
                assert _hook_product(p, alpha, shift) == want
            assert _hook_product(conjugate(p), 1, 1) == _hook_product(p, 1, 1)


class TestSymGroupDegree:
    def test_reference_examples(self):
        assert sym_group_degree((2, 2)) == 2
        assert sym_group_degree((4, 2)) == 9

    @pytest.mark.parametrize("f", range(1, 7))
    def test_single_row_has_degree_one(self, f):
        assert sym_group_degree((2 * f,)) == 1

    @pytest.mark.parametrize("m", range(1, 9))
    def test_sum_of_squares_is_factorial(self, m):
        assert sum(sym_group_degree(p) ** 2 for p in partitions_of(m)) == factorial(m)
