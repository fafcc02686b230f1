import random
from fractions import Fraction as F
from itertools import combinations, permutations, product
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shapedparts.errors import CapacityError, DimensionError
from shapedparts.generic import (
    EnumerationLimits,
    GenericPartitionSet,
    PerturbedMatrix,
    SeparatorTriple,
    _block_mask,
    _mask_block,
    _two_partition_masks,
    enumerate_generic_2partitions,
    enumerate_generic_p_partitions,
    generic_orientation,
    generic_sign,
    partitions_from_triple,
    split_by_hyperplane,
)
from shapedparts.linalg import Matrix
from shapedparts.partitions import lift, ordered_partition


def perturbed(rows):
    return PerturbedMatrix(Matrix(rows))


def blocks(partition_set: GenericPartitionSet):
    return {pi.blocks for pi in partition_set}


class _ReferenceBudget(Exception):
    pass


def reference_p_partitions(masks, n, p, max_nodes=None):
    """Depth-first assembly over part pairs, one 2-partition mask per pair.

    Every mask is tried at every node, so equal partial assemblies reached
    through different masks are explored again; a branch dies once some
    element is left without a block. Returns the set of block tuples.
    """
    pairs = [(r, s) for r in range(p) for s in range(r + 1, p)]
    full = (1 << n) - 1
    found = set()
    nodes = 0

    def descend(level, allowed):
        nonlocal nodes
        if level == len(pairs):
            found.add(allowed)
            return
        r, s = pairs[level]
        rest = 0
        for t in range(p):
            if t != r and t != s:
                rest |= allowed[t]
        for first in masks:
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                raise _ReferenceBudget
            new_r = allowed[r] & first
            new_s = allowed[s] & (full ^ first)
            if rest | new_r | new_s != full:
                continue
            child = list(allowed)
            child[r] = new_r
            child[s] = new_s
            descend(level + 1, tuple(child))

    descend(0, (full,) * p)
    return {tuple(_mask_block(m) for m in vec) for vec in found}


def reference_assemble(pair_partitions, n, p):
    """Blocks assembled from one 2-partition per part pair (r < s, in
    lexicographic order), or None when they do not cover the ground set."""
    pairs = [(r, s) for r in range(p) for s in range(r + 1, p)]
    full = (1 << n) - 1
    allowed = [full] * p
    for (r, s), pi in zip(pairs, pair_partitions, strict=True):
        first = _block_mask(pi.blocks[0])
        allowed[r] &= first
        allowed[s] &= full ^ first
    union = 0
    for mask in allowed:
        union |= mask
    if union != full:
        return None
    return tuple(_mask_block(mask) for mask in allowed)


class TestGenericSign:
    # base row (2, 2, 5): the three determinant polynomials expand by hand to
    # eps, -3 - 2 eps, and 3 + 2 eps.
    def test_duplicate_column_resolved_by_perturbation(self):
        assert generic_sign(perturbed([[2, 2, 5]]), (1,), 2) == 1

    def test_negative_side(self):
        assert generic_sign(perturbed([[2, 2, 5]]), (3,), 1) == -1

    def test_positive_side(self):
        assert generic_sign(perturbed([[2, 2, 5]]), (1,), 3) == 1

    def test_never_zero_on_random_queries(self):
        rng = random.Random(11)
        for _ in range(60):
            d = rng.randint(1, 3)
            n = rng.randint(d + 1, 6)
            p = perturbed([[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)])
            subset = tuple(sorted(rng.sample(range(1, n + 1), d)))
            outside = [i for i in range(1, n + 1) if i not in subset]
            assert generic_sign(p, subset, rng.choice(outside)) in (-1, 1)

    def test_swapping_two_columns_flips_orientation(self):
        rng = random.Random(23)
        for _ in range(40):
            d = rng.randint(1, 3)
            n = rng.randint(d + 1, 6)
            p = perturbed([[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)])
            cols = rng.sample(range(1, n + 1), d + 1)
            i, j = rng.sample(range(d + 1), 2)
            swapped = list(cols)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert generic_orientation(p, swapped) == -generic_orientation(p, cols)

    def test_index_on_subset_rejected(self):
        with pytest.raises(DimensionError):
            generic_sign(perturbed([[1, 2, 3]]), (2,), 2)

    def test_wrong_subset_size_rejected(self):
        with pytest.raises(DimensionError):
            generic_sign(perturbed([[1, 2, 3]]), (1, 2), 3)


class TestSplitByHyperplane:
    def test_all_above(self):
        assert split_by_hyperplane(perturbed([[2, 2, 5]]), (1,)) == ((), (2, 3))

    def test_all_below(self):
        assert split_by_hyperplane(perturbed([[1, 2]]), (2,)) == ((1,), ())

    def test_single_above(self):
        assert split_by_hyperplane(perturbed([[1, 2]]), (1,)) == ((), (2,))


class TestPartitionsFromTriple:
    def test_subset_into_first_block(self):
        below, above = partitions_from_triple(
            perturbed([[2, 2, 5]]), SeparatorTriple((1,), (1,), ())
        )
        assert below.blocks == ((1,), (2, 3))
        assert above.blocks == ((2, 3), (1,))

    def test_subset_into_second_block(self):
        below, above = partitions_from_triple(
            perturbed([[2, 2, 5]]), SeparatorTriple((1,), (), (1,))
        )
        assert below.blocks == ((), (1, 2, 3))
        assert above.blocks == ((1, 2, 3), ())

    def test_two_points(self):
        below, above = partitions_from_triple(
            perturbed([[1, 2]]), SeparatorTriple((2,), (2,), ())
        )
        assert below.blocks == ((1, 2), ())
        assert above.blocks == ((), (1, 2))

    def test_split_must_cover_subset(self):
        with pytest.raises(DimensionError):
            partitions_from_triple(perturbed([[1, 2, 3]]), SeparatorTriple((1,), (), ()))


class TestTwoPartitions:
    def test_two_distinct_points(self):
        two = enumerate_generic_2partitions(perturbed([[1, 2]]))
        assert blocks(two) == {
            ((), (1, 2)), ((1,), (2,)), ((2,), (1,)), ((1, 2), ()),
        }

    def test_duplicate_points_still_separate(self):
        two = enumerate_generic_2partitions(perturbed([[2, 2]]))
        assert len(two) == 4

    def test_small_n_gives_everything(self):
        two = enumerate_generic_2partitions(perturbed([[3, -1], [0, 2]]))
        assert len(two) == 4

    def test_swap_closure(self):
        rng = random.Random(5)
        for _ in range(10):
            d = rng.randint(1, 2)
            n = rng.randint(2, 6)
            p = perturbed([[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)])
            two = enumerate_generic_2partitions(p)
            members = blocks(two)
            assert all((b, a) in members for a, b in members)

    def test_cardinality_bound(self):
        rng = random.Random(6)
        for _ in range(10):
            d = rng.randint(1, 3)
            n = rng.randint(2, 7)
            p = perturbed([[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)])
            two = enumerate_generic_2partitions(p)
            if n <= d:
                assert len(two) == 2 ** n
            else:
                assert len(two) <= 2 ** (d + 1) * comb(n, d)

    def test_capacity_guard(self):
        limits = EnumerationLimits(max_two_partitions=3)
        with pytest.raises(CapacityError):
            enumerate_generic_2partitions(perturbed([[1, 2, 3]]), limits)


class TestAssemble:
    def test_pair_identity(self):
        pi = ordered_partition([[1, 3], [2]], 3)
        assert pi in enumerate_generic_p_partitions(perturbed([[1, 3, 2]]), 2)

    def test_three_parts(self):
        result = enumerate_generic_p_partitions(perturbed([[1, 2, 3]]), 3)
        for order in permutations([1, 2, 3]):
            assert ordered_partition([[i] for i in order], 3) in result

    def test_non_covering_returns_none(self):
        # Lists such as ({1}|{2,3}, {1,2,3}|{}, {}|{1,2,3}) leave element 2 or
        # 3 without a block; every assembled tuple still covers [n].
        p = perturbed([[1, 2, 3]])
        two = list(enumerate_generic_2partitions(p))
        lists = list(product(two, repeat=3))
        assert any(reference_assemble(combo, 3, 3) is None for combo in lists)
        for pi in enumerate_generic_p_partitions(p, 3):
            assert sorted(i for block in pi.blocks for i in block) == [1, 2, 3]


class TestMembership:
    def test_present_and_absent(self):
        result = enumerate_generic_p_partitions(perturbed([[1, 2, 3]]), 2)
        for pi in result:
            assert pi in result
        assert ordered_partition([[1, 3], [2]], 3) not in result
        assert ordered_partition([[1], [2], [3]], 3) not in result
        assert ordered_partition([[1], [2, 3, 4]], 4) not in result


class TestPPartitions:
    def test_p2_matches_two_partition_set(self):
        p = perturbed([[1, 2]])
        two = enumerate_generic_2partitions(p)
        assembled = enumerate_generic_p_partitions(p, 2)
        assert blocks(two) == blocks(assembled)

    def test_p1_is_single_whole_partition(self):
        result = enumerate_generic_p_partitions(perturbed([[4, 1, 1]]), 1)
        assert blocks(result) == {((1, 2, 3),)}

    def test_single_point_two_parts(self):
        result = enumerate_generic_p_partitions(perturbed([[2], [5]]), 2)
        assert blocks(result) == {((1,), ()), ((), (1,))}

    def test_list_cardinality_bound(self):
        rng = random.Random(7)
        for _ in range(8):
            d = rng.randint(1, 2)
            n = rng.randint(2, 5)
            p_count = rng.randint(2, 3)
            p = perturbed([[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)])
            two = enumerate_generic_2partitions(p)
            full = enumerate_generic_p_partitions(p, p_count)
            assert len(full) <= len(two) ** comb(p_count, 2)

    def test_pruned_equals_exhaustive_lists(self):
        rng = random.Random(8)
        for _ in range(6):
            n = rng.randint(2, 4)
            p = perturbed([[rng.randint(-2, 2) for _ in range(n)]])
            two = list(enumerate_generic_2partitions(p))
            expected = set()
            for combo in product(two, repeat=comb(3, 2)):
                candidate = reference_assemble(combo, n, 3)
                if candidate is not None:
                    expected.add(candidate)
            assert blocks(enumerate_generic_p_partitions(p, 3)) == expected

    def test_round_trip_through_own_pairs(self):
        rng = random.Random(9)
        for _ in range(6):
            d = rng.randint(1, 2)
            n = rng.randint(2, 5)
            p_count = rng.randint(2, 3)
            p = perturbed([[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)])
            two = list(enumerate_generic_2partitions(p))
            for pi in enumerate_generic_p_partitions(p, p_count):
                chosen = []
                for r in range(p_count):
                    for s in range(r + 1, p_count):
                        # some generic 2-partition keeps block r first and block s second
                        fits = [
                            q for q in two
                            if set(pi.blocks[r]) <= set(q.blocks[0])
                            and set(pi.blocks[s]) <= set(q.blocks[1])
                        ]
                        assert fits
                        chosen.append(fits[0])
                assert reference_assemble(chosen, n, p_count) == pi.blocks

    def test_translation_and_scaling_invariance(self):
        rng = random.Random(10)
        for _ in range(8):
            d = rng.randint(1, 2)
            n = rng.randint(2, 5)
            p_count = rng.randint(2, 3)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
            base = blocks(enumerate_generic_p_partitions(perturbed(rows), p_count))

            shift = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]
            translated = [[rows[r][c] + shift[r] for c in range(n)] for r in range(d)]
            assert blocks(enumerate_generic_p_partitions(perturbed(translated), p_count)) == base

            scale = F(rng.randint(1, 7), rng.randint(1, 4))
            scaled = [[scale * rows[r][c] for c in range(n)] for r in range(d)]
            assert blocks(enumerate_generic_p_partitions(perturbed(scaled), p_count)) == base

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        st.integers(1, 3), st.integers(1, 6), st.integers(2, 4),
        st.randoms(use_true_random=False),
    )
    def test_matches_depth_first_reference(self, d, n, p_count, rng):
        p = perturbed([[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)])
        masks = _two_partition_masks(p, EnumerationLimits())
        try:
            expected = reference_p_partitions(masks, n, p_count, max_nodes=300_000)
        except _ReferenceBudget:
            assume(False)
        assert blocks(enumerate_generic_p_partitions(p, p_count)) == expected

    def test_five_parts_within_default_limits(self):
        a = Matrix([[3, -1, 4, 2]])
        result = enumerate_generic_p_partitions(PerturbedMatrix(lift(a)), 5)
        assert len(result) > 0
        assert all(pi.p == 5 for pi in result)

    def test_assembly_node_guard(self):
        limits = EnumerationLimits(max_assembly_nodes=5)
        with pytest.raises(CapacityError) as caught:
            enumerate_generic_p_partitions(perturbed([[1, 2, 3, 4]]), 3, limits)
        assert caught.value.bound_name == "assembly-nodes"
        assert "pair level 1 of 3" in str(caught.value)

    def test_p_must_be_positive(self):
        with pytest.raises(DimensionError):
            enumerate_generic_p_partitions(perturbed([[1, 2]]), 0)


class TestDeterminism:
    def test_enumeration_is_reproducible(self):
        rows = [[3, -1, 0, 2, 2], [1, 1, -2, 0, 5]]
        first = enumerate_generic_p_partitions(perturbed(rows), 3)
        second = enumerate_generic_p_partitions(perturbed(rows), 3)
        assert [pi.blocks for pi in first] == [pi.blocks for pi in second]
