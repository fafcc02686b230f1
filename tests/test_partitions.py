import random
from fractions import Fraction as F
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapedparts import partitions
from shapedparts.errors import DimensionError
from shapedparts.linalg import Matrix
from shapedparts.partitions import (
    Partition,
    PartSums,
    ShapeFamily,
    compositions,
    lift,
    ordered_partition,
    partition_matrix,
    partitions_from_blocks,
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


def assignment_blocks(n, p):
    """The (p^n, p, n) 0/1 block array of every assignment of n elements to p parts."""
    digits = np.array(list(product(range(p), repeat=n)), dtype=np.int64).reshape(p ** n, n)
    return (digits[:, None, :] == np.arange(p)[:, None]).astype(np.uint8)


# (rows, columns, p, dtype of the scaled attribute matrix)
EDGE_INSTANCES = {
    "zero-and-duplicate-columns": ([[0, 3, F(1, 2), 3], [0, -1, F(-1, 3), -1]], 4, 2, np.int64),
    "denominator-near-2^61": ([[F(1, 2 ** 61 - 1), 1, 2]], 3, 2, np.int64),
    "denominators-near-2^61": ([[F(1, 2 ** 61 - 1), F(-3, 2 ** 61 + 1), 5]], 3, 3, object),
    "1e400": ([["1e400", 2, "-1/3"], [1, "1e400", 0]], 3, 2, object),
    "n=0": ([[]], 0, 2, np.int64),
    "p>n": ([[F(2, 3), -4]], 2, 4, np.int64),
    "k=0": ([], 3, 2, np.int64),
}


class TestSharedFormats:
    """PartSums and partitions_from_blocks against the Fraction definitions."""

    # chunks of one partition, of a few, and the default bound
    @pytest.mark.parametrize("name, chunk_elements", [
        pytest.param(name, chunk, id=name if chunk is None else f"{name}-chunk{chunk}")
        for name in sorted(EDGE_INSTANCES) for chunk in (None, 1, 7)
    ])
    def test_keys_are_the_scaled_part_sum_matrices(self, monkeypatch, name, chunk_elements):
        if chunk_elements is not None:
            monkeypatch.setattr(partitions, "_CHUNK_ELEMENTS", chunk_elements)
        rows, ncols, p, dtype = EDGE_INSTANCES[name]
        a = Matrix(rows, ncols=ncols)
        blocks = assignment_blocks(ncols, p)
        sums = PartSums(a, p)
        assert sums.scaled.dtype == dtype
        matrices = [partition_matrix(a, pi) for pi in partitions_from_blocks(blocks)]
        keys = sums.keys(blocks)
        assert keys == [tuple(sums.scale * x for x in m.flatten()) for m in matrices]
        assert [sums.matrix(key) for key in keys] == matrices
        assert sums.keys(blocks[:0]) == []

    @pytest.mark.parametrize("n, p", [(0, 1), (0, 3), (1, 1), (2, 4), (3, 2), (4, 3)])
    def test_partitions_read_back_the_blocks(self, n, p):
        blocks = assignment_blocks(n, p)
        expected = [
            Partition(tuple(tuple(c + 1 for c in range(n) if row[c]) for row in rows), n)
            for rows in blocks.tolist()
        ]
        assert partitions_from_blocks(blocks) == expected
        assert partitions_from_blocks(blocks[::-1]) == expected[::-1]
        assert partitions_from_blocks(blocks[:0]) == []


class TestLift:
    def test_single_row(self):
        assert lift(Matrix([[5, 6]])) == Matrix([[5, 6], [1, 2]])

    def test_zero_rows(self):
        assert lift(Matrix([], ncols=3)) == Matrix([[1, 2, 3]])

    def test_single_column(self):
        assert lift(Matrix([["1/2"], ["2/3"]])) == Matrix([["1/2"], ["2/3"], [1]])

    def test_duplicate_columns_become_distinct(self):
        lifted = lift(Matrix([[7, 7, 7]]))
        cols = [lifted.column(j) for j in range(3)]
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
        # Sizes and shapes are read as integers: no booleans, floats or strings.
        for make in (
            lambda: family.contains((True, "2")),
            lambda: family.contains((1.0, 2)),
            lambda: ShapeFamily.all_shapes(True, 2),
            lambda: ShapeFamily.all_shapes(3, 2.0),
            lambda: ShapeFamily.bounds([0, 0], [3, 3], 2.5),
            lambda: ShapeFamily.explicit([[1, 2]], 3.0, 2),
            lambda: ShapeFamily.from_predicate(bool, "3", 2),
        ):
            with pytest.raises(ValueError, match="not an integer"):
                make()

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

    def test_one_membership_callable(self):
        family = ShapeFamily.bounds([0, 1], [2, 3], 3)
        assert set(vars(family)) == {"kind", "n", "p", "admits"}
        assert [family.admits(s) for s in [(0, 3), (3, 0)]] == [True, False]

    def test_predicate_oracle(self):
        family = ShapeFamily.from_predicate(lambda s: s[0] % 2 == 0, 4, 2)
        assert family.contains((2, 2))
        assert not family.contains((1, 3))
        assert members(family) == [(0, 4), (2, 2), (4, 0)]

    def test_check_names_both_dimensions(self):
        family = ShapeFamily.all_shapes(3, 2)
        family.check(3, 2)
        for n, p in [(4, 2), (3, 3), (2, 1)]:
            with pytest.raises(DimensionError, match="n=3, p=2 does not match"):
                family.check(n, p)

    def test_admitted_asks_each_new_shape_once_in_first_occurrence_order(self):
        asked = []

        def predicate(shape):
            asked.append(shape)
            return shape[0] != 1

        family = ShapeFamily.from_predicate(predicate, 3, 2)
        # shapes (3, 0), (2, 1), (2, 1), (1, 2), (2, 1), (1, 2), (1, 2), (0, 3)
        blocks = assignment_blocks(3, 2)
        verdicts = {}
        admitted = family.admitted(blocks[:4], verdicts)
        assert asked == [(3, 0), (2, 1), (1, 2)]
        assert admitted.dtype == bool
        assert admitted.tolist() == [True, True, True, False]
        # the verdicts carry over between calls: only the new shape is asked
        assert family.admitted(blocks, verdicts).tolist() == [
            True, True, True, False, True, False, False, True
        ]
        assert asked == [(3, 0), (2, 1), (1, 2), (0, 3)]
        assert all(type(x) is int for shape in asked for x in shape)
        assert family.admitted(blocks[:0], verdicts).tolist() == []
        assert len(asked) == 4


def members(family):
    """The family's shapes in lexicographic order, by membership."""
    return [s for s in compositions(family.n, family.p) if family.contains(s)]


class TestEnumerateShapes:
    def test_all_lexicographic(self):
        family = ShapeFamily.all_shapes(2, 2)
        assert members(family) == [(0, 2), (1, 1), (2, 0)]

    def test_explicit_single(self):
        family = ShapeFamily.explicit([(1, 1)], 2, 2)
        assert members(family) == [(1, 1)]

    def test_bounds_filtering(self):
        family = ShapeFamily.bounds([1, 1], [2, 2], 3)
        assert members(family) == [(1, 2), (2, 1)]

    def test_composition_count(self):
        assert len(list(compositions(5, 3))) == 21

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 6), st.integers(1, 3), st.integers(0, 100))
    def test_enumeration_matches_membership(self, n, p, seed):
        rng = random.Random(seed)
        every = list(compositions(n, p))
        assert every == sorted(set(every))
        assert len(every) == comb(n + p - 1, p - 1)
        kind = rng.choice(["all", "bounds", "list"])
        if kind == "all":
            family = ShapeFamily.all_shapes(n, p)
            expected = every
        elif kind == "bounds":
            base = rng.choice(every)
            lower, upper = [max(0, x - 1) for x in base], [x + 1 for x in base]
            family = ShapeFamily.bounds(lower, upper, n)
            expected = [s for s in every if all(l <= x <= u for l, x, u in zip(lower, s, upper))]
        else:
            chosen = rng.sample(every, rng.randint(1, len(every)))
            family = ShapeFamily.explicit(chosen, n, p)
            expected = sorted(chosen)
        assert members(family) == expected
