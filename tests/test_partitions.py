import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapedparts.errors import DimensionError
from shapedparts.linalg import Matrix
from shapedparts.partitions import (
    Partition,
    ShapeFamily,
    compositions,
    lift,
    ordered_partition,
    partition_matrix,
    shape_of,
)


class TestPartitionType:
    def test_blocks_must_cover(self):
        with pytest.raises(DimensionError):
            ordered_partition([[1], [2]], 3)

    def test_blocks_must_be_disjoint(self):
        with pytest.raises(DimensionError):
            ordered_partition([[1, 2], [2, 3]], 3)

    def test_empty_blocks_allowed(self):
        pi = ordered_partition([[1, 2, 3], []], 3)
        assert pi.blocks == ((1, 2, 3), ())

    def test_out_of_range_rejected(self):
        with pytest.raises(DimensionError):
            ordered_partition([[0, 1]], 2)


class TestShapeOf:
    def test_with_empty_block(self):
        assert shape_of(ordered_partition([[1, 2, 3], []], 3)) == (3, 0)

    def test_two_blocks(self):
        assert shape_of(ordered_partition([[1, 3], [2]], 3)) == (2, 1)

    def test_singletons(self):
        assert shape_of(ordered_partition([[2], [1], [3]], 3)) == (1, 1, 1)


class TestPartitionMatrix:
    def test_identity_singletons(self):
        a = Matrix.identity(2)
        pi = ordered_partition([[1], [2]], 2)
        assert partition_matrix(a, pi) == Matrix.identity(2)

    def test_empty_block_gives_zero_column(self):
        a = Matrix.identity(2)
        pi = ordered_partition([[1, 2], []], 2)
        assert partition_matrix(a, pi) == Matrix([[1, 0], [1, 0]])

    def test_row_sums(self):
        a = Matrix([[1, 2, 3]])
        pi = ordered_partition([[1, 3], [2]], 3)
        assert partition_matrix(a, pi) == Matrix([[4, 2]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            partition_matrix(Matrix([[1, 2]]), ordered_partition([[1], [2], [3]], 3))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 3), st.randoms(use_true_random=False))
    def test_column_sum_conservation(self, k, n, p, rng):
        a = Matrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)])
        blocks = [[] for _ in range(p)]
        for element in range(1, n + 1):
            blocks[rng.randrange(p)].append(element)
        pi = ordered_partition(blocks, n)
        summed = partition_matrix(a, pi)
        for r in range(k):
            assert sum(summed.row(r)) == sum(a.row(r))
        assert sum(shape_of(pi)) == n


class TestLift:
    def test_single_row(self):
        assert lift(Matrix([[5, 6]])) == Matrix([[5, 6], [1, 2]])

    def test_zero_rows(self):
        assert lift(Matrix([], ncols=3)) == Matrix([[1, 2, 3]])

    def test_single_column(self):
        assert lift(Matrix([["1/2"], ["2/3"]])) == Matrix([["1/2"], ["2/3"], [1]])

    def test_duplicate_columns_become_distinct(self):
        lifted = lift(Matrix([[7, 7, 7]]))
        cols = lifted.columns()
        assert len(set(cols)) == 3
        assert lifted.row(0) == (F(7), F(7), F(7))


class TestShapeFamily:
    def test_all_contains_everything(self):
        family = ShapeFamily.all_shapes(3, 2)
        assert family.contains((2, 1))

    def test_bounds_membership(self):
        family = ShapeFamily.bounds([1, 1], [2, 2], 3)
        assert not family.contains((3, 0))
        assert family.contains((2, 1))

    def test_explicit_membership(self):
        family = ShapeFamily.explicit([(1, 1, 1)], 3, 3)
        assert family.contains((1, 1, 1))
        assert not family.contains((3, 0, 0))

    def test_arity_mismatch_is_error(self):
        family = ShapeFamily.all_shapes(3, 2)
        with pytest.raises(DimensionError):
            family.contains((1, 1, 1))
        with pytest.raises(DimensionError):
            family.contains((2, 2))

    def test_explicit_must_be_nonempty(self):
        with pytest.raises(DimensionError):
            ShapeFamily.explicit([], 3, 2)

    def test_explicit_shapes_validated(self):
        with pytest.raises(DimensionError):
            ShapeFamily.explicit([(2, 2)], 3, 2)

    def test_bounds_validated_nonempty(self):
        with pytest.raises(DimensionError):
            ShapeFamily.bounds([2, 2], [3, 3], 3)
        with pytest.raises(DimensionError):
            ShapeFamily.bounds([0, 0], [1, 1], 3)
        with pytest.raises(DimensionError):
            ShapeFamily.bounds([2, 1], [1, 2], 3)

    def test_predicate_oracle(self):
        family = ShapeFamily.from_predicate(lambda s: s[0] % 2 == 0, 4, 2)
        assert family.contains((2, 2))
        assert not family.contains((1, 3))
        assert list(family.enumerate()) == [(0, 4), (2, 2), (4, 0)]


class TestEnumerateShapes:
    def test_all_lexicographic(self):
        family = ShapeFamily.all_shapes(2, 2)
        assert list(family.enumerate()) == [(0, 2), (1, 1), (2, 0)]

    def test_explicit_single(self):
        family = ShapeFamily.explicit([(1, 1)], 2, 2)
        assert list(family.enumerate()) == [(1, 1)]

    def test_bounds_filtering(self):
        family = ShapeFamily.bounds([1, 1], [2, 2], 3)
        assert list(family.enumerate()) == [(1, 2), (2, 1)]

    def test_composition_count(self):
        assert len(list(compositions(5, 3))) == 21

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 6), st.integers(1, 3), st.integers(0, 100))
    def test_enumeration_matches_membership(self, n, p, seed):
        rng = random.Random(seed)
        kind = rng.choice(["all", "bounds", "list"])
        if kind == "all":
            family = ShapeFamily.all_shapes(n, p)
        elif kind == "bounds":
            base = rng.choice(list(compositions(n, p)))
            family = ShapeFamily.bounds(
                [max(0, x - 1) for x in base], [x + 1 for x in base], n
            )
        else:
            all_shapes = list(compositions(n, p))
            family = ShapeFamily.explicit(rng.sample(all_shapes, rng.randint(1, len(all_shapes))), n, p)
        enumerated = list(family.enumerate())
        assert enumerated == sorted(enumerated)
        assert len(set(enumerated)) == len(enumerated)
        expected = [s for s in compositions(n, p) if family.contains(s)]
        assert enumerated == expected
