import random
from fractions import Fraction as F
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    convex_combination_exists,
    lift_point,
    rank,
    reference_membership,
    solve_consistent,
)
from shapedparts.hull import _HullContext, _integer_phase_one, extreme_point_indices
from shapedparts.linalg import Matrix


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


class TestIntegerKernel:
    @settings(max_examples=150, deadline=None, database=None)
    @given(membership_problems())
    def test_matches_fraction_simplex(self, problem):
        target, generators = problem
        expected = reference_membership(target, generators)
        rows = _HullContext([target] + generators).int_rows
        assert _integer_phase_one(rows[0], rows[1:]) == expected
        assert convex_combination_exists(target, generators) == expected


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
        assert extreme_point_indices([(big,), (big + 1,), (big + 2,)]) == [0, 2]


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


class TestExtremePoints:
    def test_segment_with_midpoint(self):
        points = [(F(0),), (F(1),), (F(2),)]
        assert extreme_point_indices(points) == [0, 2]

    def test_square_with_center(self):
        points = [
            (F(0), F(0)), (F(0), F(2)), (F(1), F(1)), (F(2), F(0)), (F(2), F(2)),
        ]
        assert extreme_point_indices(points) == [0, 1, 3, 4]

    def test_single_point(self):
        assert extreme_point_indices([(F(5), F(7))]) == [0]

    def test_all_vertices_kept(self):
        points = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
        assert extreme_point_indices(points) == [0, 1, 2]

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
            assert extreme_point_indices(points) == expected
