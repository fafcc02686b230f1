import random
from fractions import Fraction as F
from itertools import combinations, permutations, product
from math import comb, factorial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shapedparts.errors import CapacityError, DimensionError
from shapedparts.generic import (
    EnumerationLimits,
    GenericPartitionSet,
    PerturbedMatrix,
    _bareiss_determinant,
    _interpolation_weights,
    _mask_block,
    _two_partition_masks,
    enumerate_generic_p_partitions,
)
from shapedparts.linalg import Matrix
from shapedparts.partitions import lift, ordered_partition


def perturbed(rows):
    return PerturbedMatrix(Matrix(rows))


def blocks(partition_set: GenericPartitionSet):
    return {pi.blocks for pi in partition_set}


def _block_mask(block):
    mask = 0
    for i in block:
        mask |= 1 << (i - 1)
    return mask


def side(p: PerturbedMatrix, subset, c):
    """Generic sign of 0-based column c against the sorted 0-based subset."""
    return -1 if p.below_mask(subset) >> c & 1 else 1


def _poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def reference_determinant_polynomial(rows, columns):
    """Coefficients in eps, lowest first, of the lifted perturbed determinant
    whose columns are the listed 0-based columns of the base rows, in order.

    Expanded term by term (Leibniz) over Fraction polynomials: entry (r, c)
    for r >= 1 is rows[r - 1][c] + eps * (c + 1)^r, and row 0 is all ones.
    """
    size = len(columns)
    entries = [[[F(1)] for _ in columns]] + [
        [[F(row[c]), F((c + 1) ** r)] for c in columns] for r, row in enumerate(rows, start=1)
    ]
    total = [F(0)] * size
    for perm in permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
        term = [F((-1) ** inversions)]
        for i, j in enumerate(perm):
            term = _poly_mul(term, entries[i][j])
        for e, x in enumerate(term):
            total[e] += x
    return total


def reference_side(rows, subset, c):
    """Sign for small eps > 0 of the determinant on subset then column c."""
    lead = next(x for x in reference_determinant_polynomial(rows, list(subset) + [c]) if x)
    return 1 if lead > 0 else -1


_entries = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.builds(F, st.integers(-2 ** 70, 2 ** 70), st.integers(2 ** 61, 2 ** 62)),
)


@st.composite
def base_rows(draw):
    """A d x n base, d <= 3 and n <= 6, with zero and duplicate columns mixed in."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d + 1, 6))
    columns = [draw(st.lists(_entries, min_size=d, max_size=d)) for _ in range(n)]
    for c in range(n):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "copy"]))
        if kind == "zero":
            columns[c] = [0] * d
        elif kind == "copy":
            columns[c] = list(columns[draw(st.integers(0, n - 1))])
    return [list(row) for row in zip(*columns)]


def two_partitions(p: PerturbedMatrix, limits: EnumerationLimits = EnumerationLimits()):
    """The generic 2-partitions: the p = 2 case of the general assembly."""
    return enumerate_generic_p_partitions(p, 2, limits)


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


def reference_level_assembly(masks, n, p):
    """The pure-Python level assembly over part pairs: one set of distinct
    states per level, masks filtered by the forced bits. Returns the block
    tuples sorted by blocks."""
    pairs = [(r, s) for r in range(p) for s in range(r + 1, p)]
    full = (1 << n) - 1
    states = {(full,) * p}
    for r, s in pairs:
        children = set()
        for allowed in states:
            free = full
            for t, mask in enumerate(allowed):
                if t != r and t != s:
                    free &= ~mask
            need_r = free & ~allowed[s]
            need = need_r | (free & ~allowed[r])
            for first in masks:
                if first & need == need_r:
                    child = list(allowed)
                    child[r] = allowed[r] & first
                    child[s] = allowed[s] & ~first
                    children.add(tuple(child))
        states = children
    return sorted(tuple(_mask_block(m) for m in vec) for vec in states)


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
        assert side(perturbed([[2, 2, 5]]), (0,), 1) == 1

    def test_negative_side(self):
        assert side(perturbed([[2, 2, 5]]), (2,), 0) == -1

    def test_positive_side(self):
        assert side(perturbed([[2, 2, 5]]), (0,), 2) == 1

    def test_hand_expansions_match_reference(self):
        rows = [[2, 2, 5]]
        assert reference_determinant_polynomial(rows, [0, 1]) == [0, 1]
        assert reference_determinant_polynomial(rows, [2, 0]) == [-3, -2]
        assert reference_determinant_polynomial(rows, [0, 2]) == [3, 2]

    def test_never_zero_on_random_queries(self):
        # below_mask raises AssertionError on an all-zero polynomial.
        rng = random.Random(11)
        for _ in range(60):
            d = rng.randint(1, 3)
            n = rng.randint(d + 1, 6)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
            subset = tuple(sorted(rng.sample(range(n), d)))
            c = rng.choice([i for i in range(n) if i not in subset])
            assert side(perturbed(rows), subset, c) == reference_side(rows, subset, c)

    def test_swapping_two_columns_flips_orientation(self):
        # For a sorted (d+1)-set U and u in U, the query (U - u, u) orders U
        # as sorted(U - u) + (u,), which is g(u) swaps away from sorted(U),
        # g(u) being the number of members of U above u. So the sides times
        # (-1)^g(u) all equal the orientation of sorted(U).
        rng = random.Random(23)
        for _ in range(40):
            d = rng.randint(1, 3)
            n = rng.randint(d + 1, 6)
            p = perturbed([[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)])
            members = sorted(rng.sample(range(n), d + 1))
            orientations = {
                side(p, tuple(v for v in members if v != u), u) * (-1) ** (d - at)
                for at, u in enumerate(members)
            }
            assert len(orientations) == 1

    @settings(max_examples=60, deadline=None, database=None)
    @given(base_rows())
    @example([[F(1, 2 ** 61 + 1), F(1, 2 ** 61 + 1), 0, F(-3, 2 ** 62 + 5)]])
    @example([[0, 0, 0, 0], [1, 1, 1, 1], [F(2, 3), F(2, 3), 0, F(2, 3)]])
    def test_matches_leibniz_expansion(self, rows):
        p = perturbed(rows)
        d, n = len(rows), len(rows[0])
        for subset in combinations(range(n), d):
            expected = 0
            for c in range(n):
                if c not in subset and reference_side(rows, subset, c) < 0:
                    expected |= 1 << c
            assert p.below_mask(subset) == expected


class TestSignKernelParts:
    @settings(max_examples=60, deadline=None, database=None)
    @given(st.integers(1, 4).flatmap(
        lambda size: st.lists(
            st.lists(st.integers(-4, 4), min_size=size, max_size=size),
            min_size=size, max_size=size,
        )
    ))
    def test_bareiss_matches_leibniz(self, rows):
        size = len(rows)
        expected = 0
        for perm in permutations(range(size)):
            inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
            term = (-1) ** inversions
            for i, j in enumerate(perm):
                term *= rows[i][j]
            expected += term
        assert _bareiss_determinant([list(row) for row in rows]) == expected

    def test_zero_pivot_needs_a_row_swap(self):
        assert _bareiss_determinant([[0, 1], [1, 0]]) == -1
        assert _bareiss_determinant([[0, 0, 1], [0, 2, 0], [3, 0, 0]]) == -6
        assert _bareiss_determinant([[0, 1], [0, 1]]) == 0

    @pytest.mark.parametrize("d", range(6))
    def test_weights_invert_vandermonde_times_factorial(self, d):
        weights = _interpolation_weights(d)
        for j in range(d + 1):
            for i in range(d + 1):
                entry = sum(weights[j][e] * e ** i for e in range(d + 1))
                assert entry == (factorial(d) if i == j else 0)


class TestSplitByHyperplane:
    def test_all_above(self):
        assert perturbed([[2, 2, 5]]).below_mask((0,)) == 0

    def test_all_below(self):
        assert perturbed([[1, 2]]).below_mask((1,)) == 0b01

    def test_single_above(self):
        assert perturbed([[1, 2]]).below_mask((0,)) == 0


class TestPartitionsFromTriple:
    # A separator triple (I, J_below, J_above) splits the d-subset I, and its
    # hyperplane splits the rest into (I_below, I_above); both orders of
    # (I_below + J_below, I_above + J_above) are generic 2-partitions.
    def test_subset_into_first_block(self):
        # [[2, 2, 5]], I = {1}: columns 2 and 3 both lie above.
        two = blocks(two_partitions(perturbed([[2, 2, 5]])))
        assert ((1,), (2, 3)) in two
        assert ((2, 3), (1,)) in two

    def test_subset_into_second_block(self):
        two = blocks(two_partitions(perturbed([[2, 2, 5]])))
        assert ((), (1, 2, 3)) in two
        assert ((1, 2, 3), ()) in two

    def test_two_points(self):
        # [[1, 2]], I = {2}: column 1 lies below.
        two = blocks(two_partitions(perturbed([[1, 2]])))
        assert ((1, 2), ()) in two
        assert ((), (1, 2)) in two


class TestTwoPartitions:
    def test_two_distinct_points(self):
        two = two_partitions(perturbed([[1, 2]]))
        assert blocks(two) == {
            ((), (1, 2)), ((1,), (2,)), ((2,), (1,)), ((1, 2), ()),
        }

    def test_duplicate_points_still_separate(self):
        two = two_partitions(perturbed([[2, 2]]))
        assert len(two) == 4

    def test_small_n_gives_everything(self):
        two = two_partitions(perturbed([[3, -1], [0, 2]]))
        assert len(two) == 4

    def test_swap_closure(self):
        rng = random.Random(5)
        for _ in range(10):
            d = rng.randint(1, 2)
            n = rng.randint(2, 6)
            p = perturbed([[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)])
            two = two_partitions(p)
            members = blocks(two)
            assert all((b, a) in members for a, b in members)

    def test_cardinality_bound(self):
        rng = random.Random(6)
        for _ in range(10):
            d = rng.randint(1, 3)
            n = rng.randint(2, 7)
            p = perturbed([[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)])
            two = two_partitions(p)
            if n <= d:
                assert len(two) == 2 ** n
            else:
                assert len(two) <= 2 ** (d + 1) * comb(n, d)

    def test_capacity_guard(self):
        limits = EnumerationLimits(max_two_partitions=3)
        with pytest.raises(CapacityError):
            two_partitions(perturbed([[1, 2, 3]]), limits)


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
        two = list(two_partitions(p))
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
        masks = _two_partition_masks(p, EnumerationLimits())
        expected = {(_mask_block(m), _mask_block(0b11 ^ m)) for m in masks}
        assert blocks(enumerate_generic_p_partitions(p, 2)) == expected

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
            two = two_partitions(p)
            full = enumerate_generic_p_partitions(p, p_count)
            assert len(full) <= len(two) ** comb(p_count, 2)

    def test_pruned_equals_exhaustive_lists(self):
        rng = random.Random(8)
        for _ in range(6):
            n = rng.randint(2, 4)
            p = perturbed([[rng.randint(-2, 2) for _ in range(n)]])
            two = list(two_partitions(p))
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
            two = list(two_partitions(p))
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

    def test_negative_limits_rejected(self):
        assert EnumerationLimits(max_two_partitions=0).max_two_partitions == 0
        for field in ("max_two_partitions", "max_assembly_nodes", "max_candidates"):
            with pytest.raises(DimensionError):
                EnumerationLimits(**{field: -1})

    def test_p_must_be_positive(self):
        with pytest.raises(DimensionError):
            enumerate_generic_p_partitions(perturbed([[1, 2]]), 0)


class TestMultiWordMasks:
    """n = 63, 64 and 65 hold each block in one, one (full) and two words."""

    @pytest.mark.parametrize("n", [63, 64, 65])
    def test_two_parts_match_reference(self, n):
        rng = random.Random(n)
        p = PerturbedMatrix(lift(Matrix([[rng.randint(-5, 5) for _ in range(n)]])))
        masks = _two_partition_masks(p, EnumerationLimits())
        result = enumerate_generic_p_partitions(p, 2, two_partition_masks=masks)
        assert [pi.blocks for pi in result] == reference_level_assembly(masks, n, 2)
        assert len(result) == n * (n - 1) + 2

    @pytest.mark.parametrize("n", [63, 64, 65])
    def test_three_parts_match_reference(self, n):
        rng = random.Random(n)
        p = PerturbedMatrix(lift(Matrix([[rng.randint(-5, 5) for _ in range(n)]])))
        # k = 1 gives millions of generic 3-partitions at this n, so assemble
        # from a complement-closed sample of its masks.
        full = (1 << n) - 1
        sample = _two_partition_masks(p, EnumerationLimits())[::150]
        masks = sorted(set(sample) | {full ^ m for m in sample})
        result = enumerate_generic_p_partitions(p, 3, two_partition_masks=masks)
        expected = reference_level_assembly(masks, n, 3)
        assert len(expected) > 100
        assert [pi.blocks for pi in result] == expected

    @pytest.mark.parametrize("n", [63, 64, 65])
    def test_three_parts_on_a_line_match_reference(self, n):
        # k = 0: the lifted points lie on a line, so the full generic set is small.
        p = PerturbedMatrix(lift(Matrix([], ncols=n)))
        masks = _two_partition_masks(p, EnumerationLimits())
        result = enumerate_generic_p_partitions(p, 3, two_partition_masks=masks)
        assert [pi.blocks for pi in result] == reference_level_assembly(masks, n, 3)


class TestAssemblyNodeBoundary:
    """One node is one (state, mask) pair; a level is charged in full before it
    runs. The cumulative counts per level were read off the depth-first and
    per-state guards of earlier versions, which trip at the same levels."""

    CASES = [
        ([[3, -1, 4, 1, -5]], 3, [22, 506, 11154], 183),
        ([[3, -1, 4, 2]], 4, [14, 210, 2954, 41370, 56686, 65016], 244),
    ]

    @pytest.mark.parametrize("rows, p_count, cumulative, size", CASES)
    def test_total_passes_one_less_trips(self, rows, p_count, cumulative, size):
        p = PerturbedMatrix(lift(Matrix(rows)))
        levels = len(cumulative)
        limits = EnumerationLimits(max_assembly_nodes=cumulative[-1])
        assert len(enumerate_generic_p_partitions(p, p_count, limits)) == size
        for level, total in enumerate(cumulative, start=1):
            with pytest.raises(CapacityError) as caught:
                limits = EnumerationLimits(max_assembly_nodes=total - 1)
                enumerate_generic_p_partitions(p, p_count, limits)
            r, s = list(combinations(range(1, p_count + 1), 2))[level - 1]
            assert str(caught.value) == (
                f"capacity guard 'assembly-nodes' exceeded (limit {total - 1}; "
                f"reached pair level {level} of {levels}, part pair ({r}, {s}))"
            )
        assert str(caught.value) == {
            3: "capacity guard 'assembly-nodes' exceeded (limit 11153; "
               "reached pair level 3 of 3, part pair (2, 3))",
            4: "capacity guard 'assembly-nodes' exceeded (limit 65015; "
               "reached pair level 6 of 6, part pair (3, 4))",
        }[p_count]


class TestDeterminism:
    def test_enumeration_is_reproducible(self):
        rows = [[3, -1, 0, 2, 2], [1, 1, -2, 0, 5]]
        first = enumerate_generic_p_partitions(perturbed(rows), 3)
        second = enumerate_generic_p_partitions(perturbed(rows), 3)
        assert [pi.blocks for pi in first] == [pi.blocks for pi in second]
