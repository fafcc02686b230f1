import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    HUGE_PROBLEMS,
    convex_combination_exists,
    lift_point,
    rank,
    reference_membership,
    solve_consistent,
)
from shapedparts import hull
from shapedparts.brute import _part_sum_keys
from shapedparts.hull import (
    _directions,
    _filter_vertices,
    _HullContext,
    _integer_phase_one,
    _part_orbits,
    extreme_point_indices,
)
from shapedparts.linalg import Matrix, fraction_free_elimination, integer_rows
from shapedparts.partitions import ShapeFamily


def every_size_caratheodory(target, others):
    """Convexity oracle scanning independent subsets of every size <= d."""
    if not others:
        return False
    lifted = [lift_point(o) for o in others]
    d = rank(Matrix.from_columns(lifted))
    lifted_target = lift_point(target)
    for size in range(1, d + 1):
        for subset in combinations(range(len(others)), size):
            system = Matrix.from_columns([lifted[i] for i in subset])
            if rank(system) < size:
                continue
            mu = solve_consistent(system, lifted_target)
            if mu is not None and all(x >= 0 for x in mu):
                return True
    return False


def frac_points(rng, count, dim):
    return [tuple(F(rng.randint(-4, 4)) for _ in range(dim)) for _ in range(count)]


@st.composite
def membership_problems(draw):
    """(target, generators) with dim <= 3 and at most 8 generators, mixing in
    zero and duplicate points, denominators in [2^61, 2^62], entries of scale
    10**400 / 3, points on a lower-dimensional flat, and no generators at all."""
    dim = draw(st.integers(1, 3))
    scalars = st.one_of(
        st.integers(-3, 3).map(F),
        st.builds(F, st.integers(-2 ** 64, 2 ** 64), st.integers(2 ** 61, 2 ** 62)),
        st.integers(-3, 3).map(lambda c: F(10 ** 400, 3) + c),
    )
    count = draw(st.integers(0, 9))  # the target and up to 8 generators
    if draw(st.booleans()):
        # an affine line through an offset
        offset = draw(st.lists(scalars, min_size=dim, max_size=dim))
        step = draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))
        points = [
            tuple(o + t * d for o, d in zip(offset, step))
            for t in draw(st.lists(st.integers(-3, 3), min_size=count + 1, max_size=count + 1))
        ]
    else:
        points = []
        for _ in range(count + 1):
            kind = draw(st.sampled_from(["fresh", "fresh", "zero", "copy"]))
            if kind == "zero":
                points.append((F(0),) * dim)
            elif kind == "copy" and points:
                points.append(draw(st.sampled_from(points)))
            else:
                points.append(tuple(draw(st.lists(scalars, min_size=dim, max_size=dim))))
    return points[0], points[1:]


@st.composite
def low_dimensional_sets(draw):
    """Point sets of affine dimension at most 2 in 2 to 4 coordinates: grid
    points of a plane, a line or a single point through an offset, so that
    edges hold collinear points, plus exact copies. Offsets and directions
    mix small integers, denominators in [2^61, 2^62] and entries of scale
    10**400 / 3."""
    flat_dim = draw(st.integers(0, 2))
    dim = draw(st.integers(2, 4))
    scalars = st.one_of(
        st.integers(-3, 3).map(F),
        st.builds(F, st.integers(-2 ** 64, 2 ** 64), st.integers(2 ** 61, 2 ** 62)),
        st.integers(-3, 3).map(lambda c: F(10 ** 400, 3) + c),
    )
    offset = draw(st.lists(scalars, min_size=dim, max_size=dim))
    basis = draw(st.lists(st.lists(scalars, min_size=dim, max_size=dim),
                          min_size=flat_dim, max_size=flat_dim))
    points = []
    for _ in range(draw(st.integers(1, 10))):
        if points and draw(st.integers(0, 3)) == 0:
            points.append(draw(st.sampled_from(points)))
            continue
        coords = draw(st.lists(st.integers(-2, 2), min_size=flat_dim, max_size=flat_dim))
        points.append(tuple(o + sum(c * b[j] for c, b in zip(coords, basis))
                            for j, o in enumerate(offset)))
    return points


class TestLowDimensional:
    """Affine dimension 0 to 2, decided without floats or a simplex."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(low_dimensional_sets())
    @example([(F(0), F(0)), (F(1), F(1)), (F(0), F(0)), (F(2), F(2)), (F(2), F(2))])
    def test_matches_general_path_and_membership_filter(self, points):
        rows, scale = integer_rows(points)
        context = _HullContext(rows, scale)
        assert len(context.int_rows[0]) <= 3
        # Of a set of equal points only the first can be a vertex.
        firsts = [i for i, point in enumerate(points) if point not in points[:i]]
        expected = [
            i for i in firsts
            if not reference_membership(points[i], [points[j] for j in firsts if j != i])
        ]
        assert extreme_point_indices(rows, scale) == expected
        assert _filter_vertices(context, firsts, firsts) == expected

    def test_duplicates_keep_the_first_copy(self):
        points = [(F(0), F(0)), (F(1), F(1)), (F(0), F(0)), (F(2), F(2)), (F(2), F(2))]
        assert extreme_point_indices(*integer_rows(points)) == [0, 3]

    def test_planar_sets_build_no_float_view(self, monkeypatch):
        def fail(self):
            raise AssertionError("float view built for a planar set")

        monkeypatch.setattr(_HullContext, "float_rows", property(fail))
        points = [(F(0), F(0), F(1)), (F(2), F(0), F(1)), (F(1), F(1), F(1)), (F(0), F(2), F(1))]
        assert extreme_point_indices(*integer_rows(points)) == [0, 1, 3]


class TestIntegerKernel:
    """The integer simplex on _HullContext.int_rows, which are affine-hull
    coordinates: an exact basis of the lifted, integer-scaled coordinates."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(membership_problems())
    def test_matches_fraction_simplex(self, problem):
        target, generators = problem
        expected = reference_membership(target, generators)
        rows = _HullContext(*integer_rows([target] + generators)).int_rows
        assert _integer_phase_one(rows[0], rows[1:]) == expected
        assert convex_combination_exists(target, generators) == expected

    @settings(max_examples=100, deadline=None, database=None)
    @given(membership_problems())
    def test_rows_keep_the_rank_of_the_lifted_points(self, problem):
        target, generators = problem
        points = [target] + generators
        rows = _HullContext(*integer_rows(points)).int_rows
        full = rank(Matrix.from_columns([lift_point(x) for x in points]))
        assert len(rows[0]) == rank(Matrix.from_columns(rows)) == full

    def test_raw_lifted_rows_off_the_exact_basis(self):
        """Lifted rows with a copied or an all-zero coordinate, which
        _HullContext would drop. The generator columns have rank below the
        row count, so every basis holds an artificial, and where the target
        is inside, one stays basic at level 0 to the end."""
        rng = random.Random(41)
        scalars = (lambda: F(rng.randint(-3, 3)),
                   lambda: F(rng.randint(-2 ** 64, 2 ** 64), rng.randint(2 ** 61, 2 ** 62)),
                   lambda: F(10 ** 400, 3) + rng.randint(-3, 3))
        verdicts = []
        for _ in range(120):
            dim, scalar = rng.randint(1, 3), rng.choice(scalars)
            points = [[scalar() for _ in range(dim)] for _ in range(rng.randint(1, 7))]
            points += [list(rng.choice(points)) for _ in range(rng.randint(0, 2))]
            kind = rng.choice(["copy", "zero", "both"])
            if kind in ("copy", "both"):
                for point in points:
                    point.append(point[0])
            if kind in ("zero", "both"):
                at = rng.randint(0, len(points[0]))
                for point in points:
                    point.insert(at, F(0))
            generators = [tuple(point) for point in points]
            chosen = rng.sample(generators, rng.randint(1, len(generators)))
            target = [sum(c) / len(chosen) for c in zip(*chosen)]
            if rng.random() < 0.5:  # perturb one coordinate: mostly outside
                target[rng.randrange(len(target))] += rng.choice([-1, 1])
            target = tuple(target)
            rows, scale = integer_rows([target] + generators)
            lifted = [(scale, *row) for row in rows]
            assert rank(Matrix.from_columns(lifted[1:])) < len(lifted[0])
            expected = reference_membership(target, generators)
            assert _integer_phase_one(lifted[0], lifted[1:]) == expected
            verdicts.append(expected)
        assert 30 < sum(verdicts) < 90


def gram_elimination(rows, scale):
    """The definition of _HullContext's basis on Python integers: the pivot
    columns of the lifted rows' Gram matrix, and each lifted row on them."""
    lifted = [[scale, *row] for row in rows]
    gram = [[sum(row[i] * row[j] for row in lifted) for j in range(len(lifted[0]))]
            for i in range(len(lifted[0]))]
    rank_of_lifted = rank(Matrix(gram))
    pivots = fraction_free_elimination(gram)
    assert len(pivots) == rank_of_lifted
    return pivots, [tuple(row[j] for j in pivots) for row in lifted]


def construction_cases():
    """(rows, scale) of int64 sets, object-dtype sets, sets with duplicate
    rows, sets whose largest magnitude is negative, rows without coordinates
    and single points."""
    rng = random.Random(61)
    cases = []
    for k, n, p in ((1, 4, 3), (2, 4, 3), (2, 3, 2)):
        a = Matrix([[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(k)])
        keys, sums = _part_sum_keys(a, p, ShapeFamily.all_shapes(n, p), False)
        cases.append((keys, sums.scale))
        cases.append((keys + keys[::3], sums.scale))  # duplicate rows
    for a, p, family in HUGE_PROBLEMS:  # keys past 2^63, and the int64 bound
        keys, sums = _part_sum_keys(a, p, family, False)
        cases.append((keys, sums.scale))
    cases.append(([(-(2 ** 70), 3, 2 ** 70)] * 3 + [(1, 2, 3)], 7))
    # the largest magnitude is negative, and its square overflows int64
    cases.append(([(-(2 ** 32), 0), (-(2 ** 32), 1), (0, 0)], 1))
    cases.append(([(5, 7)], 1))
    cases.append(([(10 ** 400, -3)], 3))
    cases.append(([(0, 0, 0)], 2))
    cases.append(([(), ()], 3))  # the keys of a matrix with no rows
    return cases


class TestContextConstruction:
    """_HullContext takes its basis from one integer array of the lifted
    rows, int64 or object as its bound allows."""

    @pytest.mark.parametrize("rows, scale", construction_cases())
    def test_matches_gram_elimination(self, rows, scale):
        context = _HullContext(rows, scale)
        pivots, int_rows = gram_elimination(rows, scale)
        assert context._pivots == pivots
        assert context.int_rows == int_rows
        assert all(type(x) is int for row in context.int_rows for x in row)
        # the magnitude bound that picks the dtypes of the integer arrays
        assert context._max_scaled == max([scale] + [abs(x) for row in rows for x in row])
        # the affine dimension: the rank of the lifted points, less one
        points = [tuple(F(x, scale) for x in row) for row in rows]
        assert len(context.int_rows[0]) == rank(Matrix.from_columns(
            [lift_point(x) for x in dict.fromkeys(points)]))

    def test_huge_keys_take_the_object_array(self):
        a, p, family = HUGE_PROBLEMS[0]
        keys, sums = _part_sum_keys(a, p, family, False)
        arrays = []
        integer_array = hull.integer_array

        def spy(values, bound):
            arrays.append(integer_array(values, bound))
            return arrays[-1]

        with mock.patch.object(hull, "integer_array", spy):
            _HullContext(keys, sums.scale)
        assert len(arrays) == 1 and arrays[0].dtype == object
        assert arrays[0].shape == (len(keys), len(keys[0]) + 1)


class TestFloatProposal:
    def test_batched_rows_match_single_rows(self, monkeypatch):
        # Targets inside and outside the hull of 12 lifted points in R^3, with
        # negative coordinates so rows flip; chunks of a few rows each.
        rng = np.random.default_rng(5)
        points = np.hstack([np.ones((12, 1)), rng.normal(size=(12, 3))])
        weights = rng.dirichlet(np.ones(12), size=20)
        targets = np.vstack([weights @ points, points[:10] * [1, 3, -3, 2]])
        monkeypatch.setattr(hull, "_CHUNK_ELEMENTS", 3 * 4 * (12 + 4 + 1))
        none = np.full(len(targets), -1)
        supports, farkas = hull._float_phase_one(points.T, targets, none)
        assert sorted(supports) == list(range(20))
        assert not farkas[:20].any()
        for j, row in enumerate(targets):
            want_supports, want_farkas = hull._float_phase_one(points.T, row[None], none[:1])
            assert (j in supports) == (0 in want_supports)
            if j in supports:
                np.testing.assert_array_equal(supports[j], want_supports[0])
            np.testing.assert_array_equal(farkas[j], want_farkas[0])
        for y, target in zip(farkas[20:], targets[20:]):
            assert (y @ points.T <= 1e-9).all() and y @ target > 0
        # Each point against the others, then the targets above with no
        # column excluded: a row's excluded column never enters, and its
        # support keeps the numbering of all the generators.
        excluded = np.concatenate([np.arange(12), none])
        mixed, mixed_farkas = hull._float_phase_one(points.T, np.vstack([points, targets]),
                                                    excluded)
        for i, row in enumerate(points):
            others = np.delete(np.arange(12), i)
            want_supports, want_farkas = hull._float_phase_one(points[others].T, row[None],
                                                               none[:1])
            assert (i in mixed) == (0 in want_supports)
            if i in mixed:
                assert i not in mixed[i]
                np.testing.assert_array_equal(mixed[i], others[want_supports[0]])
            np.testing.assert_array_equal(mixed_farkas[i], want_farkas[0])
        # Both outcomes occur, and no row gives up.
        assert {(i in mixed, mixed_farkas[i].any()) for i in range(12)} == {(True, False),
                                                                            (False, True)}
        assert {j - 12 for j in mixed if j >= 12} == set(supports)
        for j in supports:
            np.testing.assert_array_equal(mixed[12 + j], supports[j])
        np.testing.assert_array_equal(mixed_farkas[12:], farkas)


class TestInside:
    @settings(max_examples=40, deadline=None, database=None)
    @given(st.integers(3, 4), st.integers(0, 2), st.randoms(use_true_random=False))
    def test_batched_call_matches_one_target_calls(self, dim, kind, rng):
        # Points, well scaled, near 1e30 or off the integers by 2^-61, where
        # the float simplex proposes little that verifies; with few distinct
        # coordinates, some points repeat. The targets include generators,
        # each tested against the others.
        tiny = F(1, 2 ** 61)
        points = [
            tuple(F(rng.randint(-3, 3)) * (10 ** 30 if kind == 1 else 1)
                  + (rng.randint(-1, 1) * tiny if kind == 2 else 0) for _ in range(dim))
            for _ in range(rng.randint(2, 16))
        ]
        context = _HullContext(*integer_rows(points))
        indices = list(range(len(points)))
        generators = rng.sample(indices, rng.randint(1, len(points)))
        targets = rng.sample(indices, rng.randint(1, len(points)))
        batched, proofs = context.inside(targets, generators)
        assert batched == [context.inside([t], generators)[0][0] for t in targets]
        assert batched == [
            reference_membership(points[t], [points[g] for g in generators if g != t])
            for t in targets
        ]
        # A functional handed back scores its target strictly above every
        # other generator, in exact arithmetic.
        for t, proof in zip(targets, proofs):
            if proof.any():
                score = [sum(int(w) * x for w, x in zip(proof, row)) for row in context.int_rows]
                assert all(score[t] > score[g] for g in generators if g != t)

    def test_copy_of_a_target_stays_a_generator(self):
        # Points 1 and 5 are the same corner of the cube: each is inside the
        # hull of the others through the other copy.
        rows = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 0, 0)]
        points = [tuple(map(F, row)) for row in rows]
        expected = [reference_membership(points[t], points[:t] + points[t + 1:]) for t in (1, 5)]
        assert expected == [True, True]
        assert _HullContext(rows, 1).inside([1, 5], range(6))[0] == expected


class TestMembership:
    def test_midpoint(self):
        assert convex_combination_exists((F(1),), [(F(0),), (F(2),)])

    def test_outside_segment(self):
        assert not convex_combination_exists((F(3),), [(F(0),), (F(2),)])

    def test_generator_itself(self):
        assert convex_combination_exists((F(2),), [(F(0),), (F(2),)])

    def test_no_generators(self):
        assert not convex_combination_exists((F(0),), [])

    def test_single_generator(self):
        assert convex_combination_exists((F(1), F(2)), [(F(1), F(2))])
        assert not convex_combination_exists((F(1), F(3)), [(F(1), F(2))])

    def test_planar_interior(self):
        triangle = [(F(0), F(0)), (F(4), F(0)), (F(0), F(4))]
        assert convex_combination_exists((F(1), F(1)), triangle)
        assert not convex_combination_exists((F(3), F(3)), triangle)
        assert convex_combination_exists((F(2), F(2)), triangle)  # edge midpoint

    def test_huge_rationals_fall_back_exactly(self):
        big = F(10 ** 40, 3)
        generators = [(big,), (big + 2,)]
        assert convex_combination_exists((big + 1,), generators)
        assert not convex_combination_exists((big + 3,), generators)

    def test_beyond_float_range(self):
        big = F(10 ** 400, 3)
        assert convex_combination_exists((big + 1,), [(big,), (big + 2,)])
        assert extreme_point_indices(*integer_rows([(big,), (big + 1,), (big + 2,)])) == [0, 2]


class TestRouteAgreement:
    def test_three_routes_agree_on_random_sets(self, nonvertex_by_affine_bases):
        rng = random.Random(77)
        for _ in range(120):
            dim = rng.randint(1, 3)
            others = frac_points(rng, rng.randint(1, 6), dim)
            target = rng.choice(
                [
                    tuple(F(rng.randint(-4, 4)) for _ in range(dim)),
                    tuple(sum(c) / len(others) for c in zip(*others)),
                ]
            )
            expected = reference_membership(target, others)
            assert convex_combination_exists(target, others) == expected
            assert nonvertex_by_affine_bases(target, others) == expected
            assert every_size_caratheodory(target, others) == expected

    def test_vertex_verdicts_match_small_scale_oracle(self):
        # Point sets up to 12 strong, every member tested against the rest.
        rng = random.Random(79)
        for _ in range(12):
            dim = rng.randint(2, 3)
            points = list(dict.fromkeys(frac_points(rng, rng.randint(8, 12), dim)))
            for i, pt in enumerate(points):
                rest = points[:i] + points[i + 1:]
                assert convex_combination_exists(pt, rest) == every_size_caratheodory(pt, rest)

    @staticmethod
    def inside_both_routes(context, targets, generators):
        """inside's verdicts and proofs through the float proposal, and
        through the integer simplex alone."""
        with mock.patch.object(hull, "_SMALL_BATCH", -1):
            proposed = context.inside(targets, generators)
        with mock.patch.object(hull, "_SMALL_BATCH", 10 ** 9):
            exact = context.inside(targets, generators)
        return proposed, exact

    def test_inside_routes_agree_on_small_sets(self):
        # Dimension 3 to 5: points in general position, points on a
        # hyperplane of a larger space with repeated coordinates, and
        # points of 1e30 or just past float range, where floats clamp.
        rng = random.Random(83)
        big = F(10 ** 400, 3)
        tested = 0
        for trial in range(42):
            dim, kind = rng.randint(3, 5), trial % 3
            count = rng.randint(dim + 2, 12)
            if kind == 0:
                raw = frac_points(rng, count, dim)
            elif kind == 1:
                flat = frac_points(rng, count, dim)
                raw = [(*x, x[0] + x[1] - x[2], x[0]) for x in flat]
            else:
                offset = big if trial % 2 else 0
                raw = [tuple(x * 10 ** 30 + offset for x in pt)
                       for pt in frac_points(rng, count, dim)]
            points = list(dict.fromkeys(raw))
            context = _HullContext(*integer_rows(points))
            if len(context.int_rows[0]) < 4:
                continue  # a flat set: extreme_point_indices never calls inside
            tested += 1
            indices = list(range(len(points)))
            generators = rng.sample(indices, rng.randint(1, len(points)))
            targets = rng.sample(indices, rng.randint(1, min(6, len(points))))
            (proposed, proofs), (exact, no_proofs) = self.inside_both_routes(
                context, targets, generators)
            assert proposed == exact == [
                reference_membership(points[t], [points[g] for g in generators if g != t])
                for t in targets
            ]
            # The integer route proves nothing outside; _filter_vertices
            # certifies or retests such targets.
            assert not no_proofs.any() and no_proofs.shape == proofs.shape
        assert tested >= 36

    def test_small_all_shapes_set_needs_no_float_simplex(self):
        # k = 2, n = 3, p = 3, all shapes: 27 distinct keys of affine
        # dimension 4, whose orbit filter makes only small batches.
        keys, sums = _part_sum_keys(Matrix([[1, 2, 4], [3, -1, 5]]), 3,
                                    ShapeFamily.all_shapes(3, 3), False)
        points = [tuple(F(x, sums.scale) for x in key) for key in keys]
        assert len(set(keys)) == 27
        assert len(_HullContext(keys, sums.scale).int_rows[0]) == 5

        def fail(*args):
            raise AssertionError("float simplex called on a small batch")

        with mock.patch.object(hull, "_float_phase_one", fail):
            assert extreme_point_indices(keys, sums.scale, 3) == reference_vertices(points)


class TestExtremePoints:
    def test_segment_with_midpoint(self):
        points = [(F(0),), (F(1),), (F(2),)]
        assert extreme_point_indices(*integer_rows(points)) == [0, 2]

    def test_square_with_center(self):
        points = [
            (F(0), F(0)), (F(0), F(2)), (F(1), F(1)), (F(2), F(0)), (F(2), F(2)),
        ]
        assert extreme_point_indices(*integer_rows(points)) == [0, 1, 3, 4]

    def test_single_point(self):
        assert extreme_point_indices(*integer_rows([(F(5), F(7))])) == [0]

    def test_all_vertices_kept(self):
        points = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
        assert extreme_point_indices(*integer_rows(points)) == [0, 1, 2]

    def test_matches_filter_by_membership(self):
        rng = random.Random(13)
        point_sets = []
        for _ in range(25):
            dim = rng.randint(1, 3)
            point_sets.append(list(dict.fromkeys(frac_points(rng, rng.randint(2, 10), dim))))
        for _ in range(10):
            # affine hull of lower dimension than the ambient space: a plane
            # (or a line) through an offset, embedded in three or four coordinates
            flat_dim, dim = rng.randint(1, 2), rng.randint(3, 4)
            offset = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)]
            basis = [[F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(dim)]
                     for _ in range(flat_dim)]
            flat = frac_points(rng, rng.randint(2, 10), flat_dim)
            point_sets.append(list(dict.fromkeys(
                tuple(offset[j] + sum(c * b[j] for c, b in zip(coords, basis)) for j in range(dim))
                for coords in flat
            )))
        for _ in range(10):
            # ties along the axes: two values in the first coordinate, three in the rest
            dim = rng.randint(2, 3)
            point_sets.append(list(dict.fromkeys(
                (F(rng.choice([0, 2])),) + tuple(F(rng.randint(-1, 1)) for _ in range(dim - 1))
                for _ in range(rng.randint(2, 10))
            )))
        # the first maximizer of +x is an edge midpoint, not a vertex
        point_sets.append([(F(2), F(0)), (F(2), F(1)), (F(2), F(-1)), (F(0), F(0))])
        # integers next to offsets of 2^-61: the float simplex certifies nothing
        tiny = F(1, 2 ** 61)
        point_sets.append(list(dict.fromkeys(
            (F(x) + a * tiny, F(y) + b * tiny)
            for x, y in ((0, 0), (1, 0), (0, 1), (1, 1))
            for a, b in ((0, 0), (1, 0), (0, 1), (-1, -1))
        )))
        # past float range: every float coordinate clamps to the same value
        big = F(10 ** 400, 3)
        point_sets.append([(big + x, big + y) for x, y in
                           ((0, 0), (2, 0), (0, 2), (1, 1), (2, 2), (1, 0), (3, 3))])
        point_sets.append([])
        for points in point_sets:
            expected = [
                i for i, pt in enumerate(points)
                if not reference_membership(pt, points[:i] + points[i + 1:])
            ]
            assert extreme_point_indices(*integer_rows(points)) == expected

    @pytest.mark.parametrize("largest, dtype", [(2 ** 30 - 1, np.int64), (2 ** 30, object)])
    def test_at_the_int64_bound(self, monkeypatch, largest, dtype):
        # With 8 lifted points in the plane, the Gram product's bound
        # 8 * largest^2 is at most 2^63 - 1 exactly when largest < 2^30.
        points = [(F(largest), F(0)), (F(0), F(largest)), (F(-largest), F(0)),
                  (F(0), F(-largest)), (F(1), F(1)), (F(largest - 1), F(1)),
                  (F(largest // 2), F(largest // 2)), (F(-3), F(largest - 7))]
        arrays = []
        integer_array = hull.integer_array

        def spy(values, bound):
            arrays.append(integer_array(values, bound))
            return arrays[-1]

        monkeypatch.setattr(hull, "integer_array", spy)
        expected = [
            i for i, pt in enumerate(points)
            if not reference_membership(pt, points[:i] + points[i + 1:])
        ]
        assert extreme_point_indices(*integer_rows(points)) == expected
        assert arrays[0].shape == (8, 3) and arrays[0].dtype == dtype

    def test_more_vertices_than_proposal_directions(self):
        # 280 points of a prism over the parabola (t, t^2), mapped affinely
        # into four coordinates: the affine hull is 3-dimensional, so the
        # general path runs, and the proposal has the directions of R^3,
        # fewer than the vertices, so it misses some of them.
        points = [
            (F(t, 2) + 1 + s, F(t * t) - 3 * t, 7 * s - t, 2 * t + F(t * t, 3))
            for t in range(-70, 70) for s in (0, 1)
        ]
        assert len(_HullContext(*integer_rows(points)).int_rows[0]) == 4
        assert len(_directions(3)) < len(points)
        # The points are in convex position; the reference confirms a sample.
        for i in (0, 1, 37, 140, 279):
            assert not reference_membership(points[i], points[:i] + points[i + 1:])
        assert extreme_point_indices(*integer_rows(points)) == list(range(len(points)))

    def test_tied_directions_are_decided_exactly(self):
        # Past float range every point has the same float image, so every
        # direction ties and only point 0, the centre of the cube, is
        # proposed. The exact tests find it inside and every corner outside.
        big = F(10 ** 400, 3)
        offsets = [(1, 1, 1), (0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2),
                   (2, 2, 0), (2, 0, 2), (0, 2, 2), (2, 2, 2), (1, 0, 0)]
        points = [tuple(big + x for x in offset) for offset in offsets]
        context = _HullContext(*integer_rows(points))
        picks, directions = hull._propose_vertices(context.float_rows[:, 1:])
        assert picks == [0] and len(directions) == 1
        assert extreme_point_indices(*integer_rows(points)) == list(range(1, 9))

    def test_well_scaled_points_take_two_float_passes(self, monkeypatch):
        # One batched float simplex tests the unproposed points against the
        # proposed ones, and one the survivors against each other; that one
        # gets only the survivors that no functional certified.
        rng = random.Random(41)
        points = list(dict.fromkeys(
            tuple(F(rng.randint(-20, 20)) for _ in range(4)) for _ in range(150)
        ))
        rows, scale = integer_rows(points)
        expected = extreme_point_indices(rows, scale)
        calls, tests, certified = [], [], []
        float_phase_one = hull._float_phase_one
        inside = _HullContext.inside
        verify_separation = _HullContext._verify_separation

        def spy(*args):
            calls.append(len(args[1]))
            return float_phase_one(*args)

        def spy_inside(self, targets, generators):
            tests.append(list(targets))
            return inside(self, targets, generators)

        def spy_verify(self, targets, generators, functionals):
            separated = verify_separation(self, targets, generators, functionals)
            certified.append([t for t, sure in zip(targets, separated) if not sure])
            return separated

        monkeypatch.setattr(hull, "_float_phase_one", spy)
        monkeypatch.setattr(_HullContext, "inside", spy_inside)
        monkeypatch.setattr(_HullContext, "_verify_separation", spy_verify)
        context = _HullContext(rows, scale)
        assert len(context.int_rows[0]) == 5
        indices = list(range(len(points)))
        assert _filter_vertices(context, indices, indices) == expected
        assert len(calls) <= 2
        # The certification is the second exact check of functionals, after
        # the one inside the first test; the second test gets what it left.
        assert len(tests) == 2 and tests[1] == certified[1]
        assert len(tests[1]) < len(expected)
        for i in (0, 1, 2):
            assert (i in expected) != reference_membership(points[i], points[:i] + points[i + 1:])

    def test_one_row_per_chunk_gives_the_same_output(self, monkeypatch):
        rng = random.Random(31)
        point_sets = [
            list(dict.fromkeys(frac_points(rng, rng.randint(4, 30), rng.randint(1, 4))))
            for _ in range(20)
        ]
        expected = [extreme_point_indices(*integer_rows(points)) for points in point_sets]
        monkeypatch.setattr(hull, "_CHUNK_ELEMENTS", 1)
        assert [extreme_point_indices(*integer_rows(points)) for points in point_sets] == expected


def reference_vertices(points):
    """Indices of the vertices among points, first copies only, by the Fraction simplex."""
    firsts = [i for i, point in enumerate(points) if point not in points[:i]]
    return [i for i in firsts
            if not reference_membership(points[i], [points[j] for j in firsts if j != i])]


def part_sum_points(rng, k, n, family, p):
    """The distinct part-sum keys of the admissible partitions of a random
    k x n matrix, shuffled, with one key repeated; the points they give; and
    the orbit labels of the distinct keys."""
    a = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)])
    keys, sums = _part_sum_keys(a, p, family, False)
    rng.shuffle(keys)
    keys.append(keys[len(keys) // 2])
    first = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    points = [tuple(F(x, sums.scale) for x in key) for key in keys]
    return keys, sums.scale, points, _part_orbits(first, p)


class TestPartOrbits:
    """The filter on one representative per orbit of the part permutations,
    when all of them fix the key set, gives what the unreduced filter and the
    reference give."""

    @pytest.mark.parametrize("k, n, p, family, classes", [
        # all shapes: the full symmetric group on the parts
        (2, 3, 3, ShapeFamily.all_shapes(3, 3), [[0, 1, 2]]),
        (1, 3, 4, ShapeFamily.all_shapes(3, 4), [[0, 1, 2, 3]]),
        # uniform bounds
        (2, 4, 3, ShapeFamily.bounds([1, 1, 1], [2, 2, 2], 4), [[0, 1, 2]]),
        # Partial symmetries are not reduced: every key is its own orbit when
        # only some of the part swaps fix the key set.
        # two of three parts share bounds: only their swap
        (2, 4, 3, ShapeFamily.bounds([0, 0, 1], [2, 2, 3], 4), [[0], [1], [2]]),
        # a list closed under the swap of the last two parts only
        (2, 4, 3, ShapeFamily.explicit([(1, 1, 2), (1, 2, 1)], 4, 3), [[0], [1], [2]]),
        # no symmetry
        (2, 5, 3, ShapeFamily.explicit([(1, 2, 2), (3, 0, 2)], 5, 3), [[0], [1], [2]]),
        # a list closed under every permutation of the parts
        (2, 4, 3, ShapeFamily.explicit([(1, 1, 2), (1, 2, 1), (2, 1, 1)], 4, 3), [[0, 1, 2]]),
    ])
    def test_matches_unreduced_filter_and_reference(self, k, n, p, family, classes):
        rng = random.Random(19)
        for _ in range(4):
            keys, scale, points, labels = part_sum_points(rng, k, n, family, p)
            orbits = {}
            for key, label in zip(dict.fromkeys(keys), labels):
                orbits.setdefault(label, set()).add(
                    tuple(tuple(sorted(key[c::p] for c in group)) for group in classes))
            # each orbit holds the keys that sort to one class-wise form
            assert all(len(forms) == 1 for forms in orbits.values())
            assert len(orbits) == len({form for forms in orbits.values() for form in forms})
            assert len(_HullContext(keys, scale).int_rows[0]) >= 4
            expected = reference_vertices(points)
            assert extreme_point_indices(keys, scale, p) == expected
            assert extreme_point_indices(keys, scale) == expected


class TestCertificates:
    """The proposal directions only propose: degenerate ones change no verdict."""

    @pytest.mark.parametrize("directions", [
        lambda dim: np.ones((3, dim)),  # every direction ties
        lambda dim: np.zeros((2, dim)),  # zero rows
        lambda dim: np.vstack([np.zeros((1, dim)), np.eye(dim)]),  # a zero row among the axes
        lambda dim: np.full((2, dim), 1e300) * [[1], [-1]],  # huge entries
        lambda dim: np.full((1, dim), np.nan),  # no score at all
    ])
    def test_degenerate_directions_change_no_verdict(self, monkeypatch, directions):
        rng = random.Random(23)
        cases = []
        for _ in range(6):
            points = list(dict.fromkeys(frac_points(rng, rng.randint(8, 20), rng.randint(3, 4))))
            cases.append((*integer_rows(points), 1, points))
        for family in (ShapeFamily.all_shapes(3, 3),
                       ShapeFamily.explicit([(1, 1, 2), (1, 2, 1)], 4, 3)):
            keys, scale, points, _ = part_sum_points(rng, 2, family.n, family, 3)
            cases.append((keys, scale, 3, points))
        monkeypatch.setattr(hull, "_directions", directions)
        for rows, scale, parts, points in cases:
            assert len(_HullContext(rows, scale).int_rows[0]) >= 4
            assert extreme_point_indices(rows, scale, parts) == reference_vertices(points)


def fresh_python(code, *args, seed="0"):
    """Standard output of code run in a new interpreter with its own hash seed."""
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONHASHSEED": seed})
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestDirections:
    """The proposal directions: a fixed set, drawn without numpy.random."""

    def test_check_leaves_numpy_random_unimported(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"matrix": [[1, 2, 3], [3, 1, 2]], "p": 3,
                                    "shapes": {"type": "all"}}))
        code = ("import sys\n"
                "from shapedparts import cli, hull\n"
                "assert cli.main(['check', sys.argv[1], '--output', sys.argv[2]]) == 0\n"
                "assert hull._directions.cache_info().currsize  # a dimension >= 3 hull ran\n"
                "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n")
        assert fresh_python(code, str(path), str(tmp_path / "report.json")) == "[]\n"

    @pytest.mark.parametrize("dim", [3, 4, 12])
    def test_gaussian_rows_then_the_axes(self, dim):
        directions = _directions(dim)
        rows = 64 * dim + 64
        assert directions.shape == (rows + 2 * dim, dim)
        assert np.array_equal(directions[rows:], np.vstack([np.eye(dim), -np.eye(dim)]))
        assert np.isfinite(directions[:rows]).all() and 0.9 < directions[:rows].std() < 1.1

    def test_same_directions_in_every_process(self):
        code = ("import hashlib, sys\n"
                "from shapedparts.hull import _directions\n"
                "print(hashlib.sha256(_directions(int(sys.argv[1])).tobytes()).hexdigest())\n")
        for dim in (3, 7):
            digest = hashlib.sha256(_directions(dim).tobytes()).hexdigest()
            assert fresh_python(code, str(dim), seed="1") == fresh_python(code, str(dim), seed="2")
            assert fresh_python(code, str(dim)) == digest + "\n"
