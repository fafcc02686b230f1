import random
import tracemalloc
from fractions import Fraction as F
from functools import cache, partial
from itertools import combinations, permutations, product
from math import comb

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shapedparts import generic
from shapedparts.errors import CapacityError, DimensionError
from shapedparts.generic import (
    EnumerationLimits,
    GenericPartitionSet,
    PerturbedMatrix,
    _determinant_polynomials,
    _two_partition_masks,
    enumerate_generic_p_partitions,
)
from shapedparts.linalg import Matrix, fraction_free_elimination, integer_rows
from shapedparts.partitions import lift, ordered_partition


def perturbed(rows):
    return PerturbedMatrix(Matrix(rows))


def blocks(partition_set: GenericPartitionSet):
    return {pi.blocks for pi in partition_set}


def _mask_block(mask):
    """The 1-based elements whose bits are set in mask, in increasing order."""
    return tuple(c + 1 for c in range(mask.bit_length()) if mask >> c & 1)


def _determinant(rows):
    """Determinant of a square integer matrix by the shared fraction-free
    elimination: its last pivot entry, times the sign of the row swaps it made
    in place, read off where each row list ended up."""
    rows = [list(row) for row in rows]
    start = [id(row) for row in rows]
    if len(fraction_free_elimination(rows)) < len(rows):
        return 0
    order = [start.index(id(row)) for row in rows]
    swaps = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    return (-1) ** swaps * rows[-1][-1]


def _block_mask(block):
    mask = 0
    for i in block:
        mask |= 1 << (i - 1)
    return mask


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def reference_determinant_polynomial(rows, columns):
    """Coefficients in eps, lowest first, of the lifted perturbed determinant
    whose columns are the listed 0-based columns of the base rows, in order.

    Expanded term by term (Leibniz) over polynomials with exact (int or
    Fraction) coefficients: entry (r, c) for r >= 1 is
    rows[r - 1][c] + eps * (c + 1)^r, and row 0 is all ones.
    """
    size = len(columns)
    entries = [[[1] for _ in columns]] + [
        [[row[c], (c + 1) ** r] for c in columns] for r, row in enumerate(rows, start=1)
    ]
    total = [0] * size
    for perm in permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
        term = [(-1) ** inversions]
        for i, j in enumerate(perm):
            term = _poly_mul(term, entries[i][j])
        for e, x in enumerate(term):
            total[e] += x
    return total


def reference_side(rows, subset, c):
    """Sign for small eps > 0 of the determinant on subset then column c."""
    lead = next(x for x in reference_determinant_polynomial(rows, list(subset) + [c]) if x)
    return 1 if lead > 0 else -1


def reference_below_mask(p: PerturbedMatrix, subset):
    """Bitmask of the 0-based columns outside the sorted d-subset that lie on
    the negative side of its hyperplane, by the Leibniz expansion of the
    integer base (L times the base: every sign is kept)."""
    integral = p._lifted[1:]
    mask = 0
    for c in range(p.n):
        if c not in subset and reference_side(integral, subset, c) < 0:
            mask |= 1 << c
    return mask


def side(p: PerturbedMatrix, subset, c):
    """Generic sign of 0-based column c against the sorted 0-based subset."""
    return -1 if reference_below_mask(p, subset) >> c & 1 else 1


def polynomial_arrays(p: PerturbedMatrix):
    """The lifted columns and shifts of p as Python-integer arrays."""
    return np.array(p._lifted, dtype=object), np.array(p._shifts, dtype=object)


def kernel_side(p: PerturbedMatrix, subset, c):
    """The package kernel's sign for column c against the sorted subset: its
    first nonzero coefficient at degree d (StopIteration if all are zero)."""
    polynomial = _determinant_polynomials(*polynomial_arrays(p), np.array([subset]), p.d)[:, 0, c]
    return 1 if next(x for x in polynomial if x) > 0 else -1


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


def reference_pairwise_partitions(masks, j, p):
    """Every ordered p-partition of elements 1..j whose part pairs r < s each
    have a mask holding all of block r and none of block s, by trying all
    p^j labelings. Returns the set of block-mask tuples; at j = n these are
    the generic p-partitions, and at j < n the prefixes the element assembly
    keeps before placing element j + 1."""
    found = set()
    for labels in product(range(p), repeat=j):
        blocks = [0] * p
        for c, r in enumerate(labels):
            blocks[r] |= 1 << c
        if all(any(f & blocks[r] == blocks[r] and not f & blocks[s] for f in masks)
               for r in range(p) for s in range(r + 1, p)):
            found.add(tuple(blocks))
    return found


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


def reference_two_partition_masks(p: PerturbedMatrix, limits: EnumerationLimits,
                                   below_mask=None):
    """The per-subset loop the batched mask stage replaced: the Leibniz
    below mask of every sorted d-subset, then every split of the subset, one
    mask at a time, with the guard checked after each."""
    below_mask = below_mask or partial(reference_below_mask, p)
    d, n = p.d, p.n
    full = (1 << n) - 1
    if n <= d:
        if 1 << n > limits.max_two_partitions:
            raise CapacityError("two-partitions", limits.max_two_partitions, 1 << n)
        return list(range(1 << n))
    masks = set()
    for index, subset in enumerate(combinations(range(n), d), start=1):
        below = below_mask(subset)
        for choice in range(1 << d):
            first = below
            for pos, element in enumerate(subset):
                if choice >> pos & 1:
                    first |= 1 << element
            masks.add(first)
            masks.add(full ^ first)
            if len(masks) > limits.max_two_partitions:
                raise CapacityError("two-partitions", limits.max_two_partitions,
                                    reached=f"d-subset {index} of {comb(n, d)}")
    return sorted(masks)


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
        # kernel_side raises StopIteration on an all-zero polynomial.
        rng = random.Random(11)
        for _ in range(60):
            d = rng.randint(1, 3)
            n = rng.randint(d + 1, 6)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
            subset = tuple(sorted(rng.sample(range(n), d)))
            c = rng.choice([i for i in range(n) if i not in subset])
            assert kernel_side(perturbed(rows), subset, c) == reference_side(rows, subset, c)

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
                kernel_side(p, tuple(v for v in members if v != u), u) * (-1) ** (d - at)
                for at, u in enumerate(members)
            }
            assert len(orientations) == 1

    @settings(max_examples=60, deadline=None, database=None)
    @given(base_rows())
    @example([[F(1, 2 ** 61 + 1), F(1, 2 ** 61 + 1), 0, F(-3, 2 ** 62 + 5)]])
    @example([[0, 0, 0, 0], [1, 1, 1, 1], [F(2, 3), F(2, 3), 0, F(2, 3)]])
    def test_matches_leibniz_expansion(self, rows):
        # The kernel works on L times the base and reads eps as L * eps, so
        # its coefficient t is L^(d - t) times the Leibniz one.
        p = perturbed(rows)
        d, n = len(rows), len(rows[0])
        _, scale = integer_rows(rows)
        subsets = np.array(list(combinations(range(n), d)))
        polynomials = _determinant_polynomials(*polynomial_arrays(p), subsets, d)
        assert polynomials.shape == (d + 1, len(subsets), n)
        for s, subset in enumerate(subsets.tolist()):
            for c in range(n):
                expected = reference_determinant_polynomial(rows, subset + [c])
                assert polynomials[:, s, c].tolist() == [
                    scale ** (d - t) * x for t, x in enumerate(expected)
                ]


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
        assert _determinant(rows) == expected

    def test_zero_pivot_needs_a_row_swap(self):
        assert _determinant([[0, 1], [1, 0]]) == -1
        assert _determinant([[0, 0, 1], [0, 2, 0], [3, 0, 0]]) == -6
        assert _determinant([[0, 1], [0, 1]]) == 0

    @pytest.mark.parametrize("d", range(6))
    def test_leading_coefficient_is_vandermonde(self, d):
        # The eps^d coefficient takes row 0 from the ones and rows 1..d from
        # the shifts (c + 1)^r: the Vandermonde determinant at the columns'
        # indices, whatever the base.
        rng = random.Random(d)
        n = d + 3
        columns = np.array([[1] * n] + [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)])
        shifts = np.array([[(c + 1) ** r if r else 0 for c in range(n)] for r in range(d + 1)])
        subsets = np.array(list(combinations(range(n), d)))
        leading = _determinant_polynomials(columns, shifts, subsets, d)[d]
        for s, subset in enumerate(subsets.tolist()):
            for c in range(n):
                indices = subset + [c]
                expected = 1
                for i, j in combinations(range(d + 1), 2):
                    expected *= indices[j] - indices[i]
                assert leading[s, c] == expected


class TestSplitByHyperplane:
    def test_all_above(self):
        assert reference_below_mask(perturbed([[2, 2, 5]]), (0,)) == 0

    def test_all_below(self):
        assert reference_below_mask(perturbed([[1, 2]]), (1,)) == 0b01

    def test_single_above(self):
        assert reference_below_mask(perturbed([[1, 2]]), (0,)) == 0


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
        assert pi in enumerate_generic_p_partitions(perturbed([[1, 3, 2]]), 2).partitions

    def test_three_parts(self):
        result = enumerate_generic_p_partitions(perturbed([[1, 2, 3]]), 3)
        for order in permutations([1, 2, 3]):
            assert ordered_partition([[i] for i in order], 3) in result.partitions

    def test_non_covering_returns_none(self):
        # Lists such as ({1}|{2,3}, {1,2,3}|{}, {}|{1,2,3}) leave element 2 or
        # 3 without a block; every assembled tuple still covers [n].
        p = perturbed([[1, 2, 3]])
        two = list(two_partitions(p))
        lists = list(product(two, repeat=3))
        assert any(reference_assemble(combo, 3, 3) is None for combo in lists)
        for pi in enumerate_generic_p_partitions(p, 3):
            assert sorted(i for block in pi.blocks for i in block) == [1, 2, 3]


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

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        st.integers(1, 3), st.integers(1, 5), st.integers(2, 5),
        st.randoms(use_true_random=False),
    )
    def test_matches_depth_first_reference_up_to_five_parts(self, d, n, p_count, rng):
        # The depth-first reference runs out of budget on most p = 5 draws;
        # the brute-force labelings, which it confirms, cover every draw.
        p = perturbed([[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)])
        masks = _two_partition_masks(p, EnumerationLimits())
        expected = {tuple(map(_mask_block, vec)) for vec in reference_pairwise_partitions(masks, n, p_count)}
        try:
            assert reference_p_partitions(masks, n, p_count, max_nodes=300_000) == expected
        except _ReferenceBudget:
            pass
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
        assert "element 1 of 4" in str(caught.value)

    def test_two_parts_charge_one_node_per_mask(self):
        p = perturbed([[1, 3, 2]])
        count = len(_two_partition_masks(p, EnumerationLimits()))
        assert len(enumerate_generic_p_partitions(p, 2, EnumerationLimits(max_assembly_nodes=count))) == count
        with pytest.raises(CapacityError) as caught:
            enumerate_generic_p_partitions(p, 2, EnumerationLimits(max_assembly_nodes=count - 1))
        assert str(caught.value) == (
            f"capacity guard 'assembly-nodes' exceeded (limit {count - 1}, needed {count})"
        )

    def test_labels_hold_hundreds_of_parts(self):
        # one element, two masks: it may go to any of the 300 parts
        result = enumerate_generic_p_partitions(perturbed([[1]]), 300)
        assert len(result) == 300
        assert sorted(result.blocks.argmax(axis=1)[:, 0].tolist()) == list(range(300))

    def test_guard_stops_part_growth_before_it_allocates(self):
        # Element 1 is charged 1 * 1000 * 999 nodes (4 masks, one word) and
        # runs; element 2 would examine 1000 times as many and is refused.
        with pytest.raises(CapacityError) as caught:
            enumerate_generic_p_partitions(perturbed([[1, 2]]), 1000)
        assert str(caught.value) == (
            "capacity guard 'assembly-nodes' exceeded (limit 5000000; reached element 2 of 2)"
        )
        # Element 1 alone is charged about 10^18 nodes: nothing of size p is built.
        with pytest.raises(CapacityError) as caught:
            enumerate_generic_p_partitions(perturbed([[1, 2]]), 10 ** 9)
        assert str(caught.value).endswith("reached element 1 of 2)")

    def test_seven_points_four_parts_within_default_limits(self):
        rng = random.Random(7)
        p = PerturbedMatrix(lift(Matrix([[rng.randint(-5, 5) for _ in range(7)]])))
        masks = _two_partition_masks(p, EnumerationLimits())
        result = enumerate_generic_p_partitions(p, 4, two_partition_masks=masks)
        expected = reference_pairwise_partitions(masks, 7, 4)
        assert len(result) == len(expected) > 5000
        assert {tuple(map(_block_mask, pi.blocks)) for pi in result} == expected

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
    """Before element e the assembly is charged its prefixes times p times
    (p - 1) times the mask words. The prefixes before element e are the
    ordered p-partitions of elements 1..e - 1 that have a witness mask for
    every part pair, so the cumulative counts follow from the brute-force
    prefix counts, which the test recomputes."""

    CASES = [
        ([[3, -1, 4, 1, -5]], 3, [6, 24, 78, 240, 690], 183),
        ([[3, -1, 4, 2]], 4, [12, 60, 252, 1020], 244),
        # 74 masks: two words per bitset
        ([[3, -1, 4, 1, -5, 9, 2, -6, 5]], 3, [12, 48, 156, 480, 1380, 3576, 8364, 17544, 33852], 2265),
    ]
    # the text of the last trip of each case, by its partition count
    LAST = {
        183: "capacity guard 'assembly-nodes' exceeded (limit 689; reached element 5 of 5)",
        244: "capacity guard 'assembly-nodes' exceeded (limit 1019; reached element 4 of 4)",
        2265: "capacity guard 'assembly-nodes' exceeded (limit 33851; reached element 9 of 9)",
    }

    @pytest.mark.parametrize("rows, p_count, cumulative, size", CASES)
    def test_counts_follow_the_prefixes(self, rows, p_count, cumulative, size):
        p = PerturbedMatrix(lift(Matrix(rows)))
        masks = _two_partition_masks(p, EnumerationLimits())
        words = -(-len(masks) // 64)
        total, derived = 0, []
        for j in range(p.n):
            prefixes = len(reference_pairwise_partitions(masks, j, p_count))
            total += prefixes * p_count * (p_count - 1) * words
            derived.append(total)
        assert derived == cumulative
        assert len(reference_pairwise_partitions(masks, p.n, p_count)) == size

    @pytest.mark.parametrize("rows, p_count, cumulative, size", CASES)
    def test_total_passes_one_less_trips(self, rows, p_count, cumulative, size):
        p = PerturbedMatrix(lift(Matrix(rows)))
        limits = EnumerationLimits(max_assembly_nodes=cumulative[-1])
        assert len(enumerate_generic_p_partitions(p, p_count, limits)) == size
        for element, total in enumerate(cumulative, start=1):
            with pytest.raises(CapacityError) as caught:
                limits = EnumerationLimits(max_assembly_nodes=total - 1)
                enumerate_generic_p_partitions(p, p_count, limits)
            assert str(caught.value) == (
                f"capacity guard 'assembly-nodes' exceeded (limit {total - 1}; "
                f"reached element {element} of {p.n})"
            )
        assert str(caught.value) == self.LAST[size]


class TestAssemblyTiles:
    """The assembly tests run in bounded (parts, parts, words, prefixes) tiles."""

    @pytest.mark.parametrize("chunk_elements", [1, 3, 16, 100])
    @pytest.mark.parametrize("rows, p_count", [
        ([[3, -1, 4, 2]], 4),
        ([[3, -1, 4, 1, -5, 9, 2, -6, 5]], 3),  # two words per bitset
    ])
    def test_tile_size_changes_nothing(self, monkeypatch, rows, p_count, chunk_elements):
        p = PerturbedMatrix(lift(Matrix(rows)))
        expected = enumerate_generic_p_partitions(p, p_count).blocks
        monkeypatch.setattr(generic, "_CHUNK_ELEMENTS", chunk_elements)
        np.testing.assert_array_equal(enumerate_generic_p_partitions(p, p_count).blocks, expected)

    def test_many_parts_stay_small(self):
        # Element 1 at p = 2000 passes the default guard (3,998,000 nodes)
        # and element 2 trips it; one (p, p) temporary would be 32 MB.
        p = PerturbedMatrix(lift(Matrix([[1, 2]])))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="reached element 2 of 2"):
                enumerate_generic_p_partitions(p, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


class TestBatchedMasks:
    """The batched mask stage against the per-subset reference loop."""

    @pytest.fixture
    def fallback_calls(self, monkeypatch):
        """Records, per subset handed to the degree-d pass after it is
        requested, the subset and its columns outside it whose eps^0 value
        is 0 (the reference loop runs before)."""
        calls = []
        determinant_polynomials = generic._determinant_polynomials

        def spy(columns, shifts, subsets, degree):
            if degree:
                values = determinant_polynomials(columns, shifts, subsets, 0)[0]
                for subset, row in zip(subsets.tolist(), values):
                    zeros = np.flatnonzero(row == 0).tolist()
                    calls.append((tuple(subset), [c for c in zeros if c not in subset]))
            return determinant_polynomials(columns, shifts, subsets, degree)

        def install():
            monkeypatch.setattr(generic, "_determinant_polynomials", spy)
            return calls

        return install

    @settings(max_examples=60, deadline=None, database=None)
    @given(base_rows())
    def test_matches_reference_loop(self, rows):
        p = perturbed(rows)
        limits = EnumerationLimits()
        assert _two_partition_masks(p, limits) == reference_two_partition_masks(p, limits)

    @pytest.mark.parametrize("base, vanishing", [
        pytest.param(lift(Matrix([[0] * 6, [0] * 6])), True, id="all-zero-attribute-rows"),
        pytest.param(Matrix([[0] * 5]), True, id="all-zero-base"),
        pytest.param(Matrix([[1, 1, 2, 2, 3], [0, 0, 1, 1, 5]]), True, id="duplicate-columns"),
        pytest.param(Matrix([[0, 1, 2, 3, 4, 5], [0, 2, 4, 6, 8, 10]]), True, id="collinear-columns"),
        pytest.param(lift(Matrix([[1, 2, 3, 4, 5, 6]])), True, id="collinear-lifted"),
        # the index row keeps every eps^0 value of the line nonzero
        pytest.param(lift(Matrix([], ncols=7)), False, id="k0-line"),
    ])
    def test_degenerate_inputs_use_the_fallback(self, fallback_calls, base, vanishing):
        p = PerturbedMatrix(base)
        limits = EnumerationLimits()
        expected = reference_two_partition_masks(p, limits)
        calls = fallback_calls()
        assert _two_partition_masks(p, limits) == expected
        assert bool(calls) == vanishing
        # the degree-d pass gets only subsets with an eps^0 zero outside them
        assert all(columns for subset, columns in calls)

    @pytest.fixture
    def column_dtypes(self, monkeypatch):
        """The dtypes of the integer arrays the mask stage builds: one for the
        eps^0 pass, then one for the degree-d pass if any subset needs it."""
        dtypes = []
        integer_array = generic.integer_array

        def spy(values, bound):
            array = integer_array(values, bound)
            dtypes.append(array.dtype)
            return array

        monkeypatch.setattr(generic, "integer_array", spy)
        return dtypes

    @pytest.mark.parametrize("rows, dtypes", [
        ([[3, -1, 4, 1, -5], [2, 2, 0, -7, 1]], [np.int64]),
        ([[F(1, 2 ** 61 + 1), F(1, 2 ** 61 + 1), 0, F(-3, 2 ** 62 + 5), 1]], [object]),
        ([["1e400", "-1e400", 3, "1e400", 0], [1, 2, "-3e400", 2, "1e399"]], [object]),
        ([[2 ** 40, -2 ** 40, 3, 2 ** 40, 5], [1, 2 ** 41, 0, 2, 2 ** 40]], [object]),
        # lifted columns 1, 2 and 3 are collinear; 3! * 1 * 9 * 30 = 1,620
        ([[1, 2, 3, 5, 4]], [np.int64, np.int64]),
        # In the next three, lifted columns 1, 4 and 7 are collinear and N^(d + 1)
        # fits. d = 4, n = 9: 5! * 1 * 15 * 84 * 731 * 6,570, about 7.3e11.
        ([[3, -1, 4, 1, -5, 9, -1, 6, 5], [2, 2, 0, 3, 1, 2, 4, 0, -3], [1, 0, -2, 0, 4, 1, -1, 5, 2]],
         [np.int64, np.int64]),
        # d = 5, n = 7: 6! * 1 * 12 * 53 * 344 * 2,403 * 16,814, about 6.4e15.
        ([[3, -1, 4, 4, -5, 3, 5], [2, 2, 0, 3, 1, 2, 4], [1, 0, -2, 0, 4, 1, -1], [0, 5, 1, 1, 2, 0, 2]],
         [np.int64, np.int64]),
        # d = 6, n = 7: 7! * 1 * 10 * 53 * 344 * 2,403 * 16,807 * 117,656, about 4.4e21.
        ([[3, -1, 4, 1, -5, 3, -1], [2, 2, 0, 3, 1, 2, 4], [1, 0, -2, 0, 4, 1, -1],
          [0, 5, 1, 1, 2, 0, 2], [4, -2, 3, 2, 1, 1, 0]],
         [np.int64, object]),
    ], ids=["int64", "denominators-2^61", "1e400", "beyond-int64-bound", "collinear-int64",
            "degree-d-int64-d4", "degree-d-int64-d5", "degree-d-object"])
    def test_int64_and_object_paths_match_reference(self, column_dtypes, rows, dtypes):
        p = PerturbedMatrix(lift(Matrix(rows)))
        limits = EnumerationLimits()
        assert _two_partition_masks(p, limits) == reference_two_partition_masks(p, limits)
        assert column_dtypes == dtypes

    @pytest.mark.parametrize("rows", [[[3, -1], [0, 2]], [[2], [5]], [[1, 2, 3]] * 3])
    def test_n_at_most_d(self, rows):
        p = perturbed(rows)
        limits = EnumerationLimits()
        assert _two_partition_masks(p, limits) == reference_two_partition_masks(p, limits)

    @pytest.mark.parametrize("n", [63, 64, 65])
    @pytest.mark.parametrize("line", [False, True], ids=["repeated-entries", "k0-line"])
    def test_multi_word_masks(self, fallback_calls, n, line):
        # d = 1 keeps the reference cheap at this n. Entries in [-5, 5]
        # repeat, so the fallback runs; on the line it never does.
        rng = random.Random(n)
        base = lift(Matrix([], ncols=n)) if line else Matrix([[rng.randint(-5, 5) for _ in range(n)]])
        p = PerturbedMatrix(base)
        limits = EnumerationLimits()
        expected = reference_two_partition_masks(p, limits)
        calls = fallback_calls()
        assert _two_partition_masks(p, limits) == expected
        assert bool(calls) != line
        if n == 65 and not line:
            assert any(max(columns) == 64 or subset == (64,) for subset, columns in calls)


class TestMaskGuardParity:
    """Every limit gives the reference loop's outcome: the same CapacityError
    text, or the same masks. The chunk bound is varied so that the guard
    trips inside a chunk and at chunk boundaries."""

    # A bound of 1 gives one d-subset per chunk; 500 gives 15, 6 and 2 of
    # them at k = 1, 2 and 3; the default takes all in one chunk.
    @pytest.mark.parametrize("k, n, seed", [(1, 8, 1), (2, 8, 2), (3, 7, 3)])
    @pytest.mark.parametrize("chunk_elements", [1, 500, None])
    def test_every_limit(self, monkeypatch, k, n, seed, chunk_elements):
        rng = random.Random(seed)
        p = PerturbedMatrix(lift(Matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)])))
        if chunk_elements is not None:
            monkeypatch.setattr(generic, "_SUBSET_CHUNK_ELEMENTS", chunk_elements)
        below_mask = cache(partial(reference_below_mask, p))
        full = reference_two_partition_masks(p, EnumerationLimits(), below_mask)
        for limit in range(len(full) + 1):
            limits = EnumerationLimits(max_two_partitions=limit)
            try:
                expected = reference_two_partition_masks(p, limits, below_mask)
            except CapacityError as caught:
                expected = str(caught)
            try:
                outcome = _two_partition_masks(p, limits)
            except CapacityError as caught:
                outcome = str(caught)
            assert outcome == expected, limit
        assert outcome == full


class TestBlockOrder:
    """The packed base-3 sort keys against the lexsort over one code column
    per position, and against sorting the blocks as tuples."""

    @pytest.mark.parametrize("n, p", [(9, 3), (13, 3), (10, 4), (14, 3), (20, 4)])
    def test_packed_keys_match_the_code_lexsort(self, n, p):
        # p * n = 27, 39, 40, 42 and 80: one key, one full key, then 2, 2 and 3 keys
        rng = np.random.default_rng(n * p)
        labels = rng.integers(0, p, size=(400, n))
        labels = np.vstack([labels, labels[:40]])  # repeated rows keep their order
        blocks = (labels[:, None, :] == np.arange(p)[:, None]).view(np.uint8)
        at_or_past = np.maximum.accumulate(blocks[..., ::-1], axis=-1)[..., ::-1]
        codes = (2 * at_or_past - blocks).reshape(len(blocks), p * n)
        order = generic._block_order(blocks)
        np.testing.assert_array_equal(order, np.lexsort(codes.T[::-1]))
        as_tuples = [tuple(tuple(np.flatnonzero(block) + 1) for block in pi) for pi in blocks]
        assert order.tolist() == sorted(range(len(blocks)), key=as_tuples.__getitem__)


class TestDeterminism:
    def test_enumeration_is_reproducible(self):
        rows = [[3, -1, 0, 2, 2], [1, 1, -2, 0, 5]]
        first = enumerate_generic_p_partitions(perturbed(rows), 3)
        second = enumerate_generic_p_partitions(perturbed(rows), 3)
        assert [pi.blocks for pi in first] == [pi.blocks for pi in second]
