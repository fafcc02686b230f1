import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings

from conftest import convex_combination_exists, edge_problems
from shapedparts.brute import brute_solve, brute_vertices
from shapedparts.errors import CapacityError, DimensionError
from shapedparts.generic import EnumerationLimits
from shapedparts.linalg import Matrix
from shapedparts.objectives import LinearObjective
from shapedparts.partitions import ShapeFamily
from shapedparts.polytope import candidate_vertices, enumerate_vertices
from shapedparts.solver import solve


def is_vertex(value, values):
    """Whether 1x1 value is extreme among the distinct 1x1 values."""
    return not convex_combination_exists((F(value),), [(F(v),) for v in values if v != value])


def random_matrix(rng, k, n):
    return Matrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)])


class TestCandidates:
    def test_cube_candidates(self):
        cand = candidate_vertices(Matrix.identity(3), 2, ShapeFamily.all_shapes(3, 2))
        assert len(cand.members) == 8
        assert len({m.flatten() for m in cand.members}) == 8
        for member, witnesses in zip(cand.members, cand.witnesses):
            assert witnesses
            for pi in witnesses:
                first = pi.blocks[0]
                expected_col = [F(1) if i in first else F(0) for i in range(1, 4)]
                assert list(member.column(0)) == expected_col

    def test_permutation_candidates(self):
        cand = candidate_vertices(
            Matrix([[1, 2, 3]]), 3, ShapeFamily.explicit([(1, 1, 1)], 3, 3)
        )
        rows = {m.row(0) for m in cand.members}
        assert rows == {
            (F(1), F(2), F(3)), (F(1), F(3), F(2)), (F(2), F(1), F(3)),
            (F(2), F(3), F(1)), (F(3), F(1), F(2)), (F(3), F(2), F(1)),
        }

    def test_single_part(self):
        cand = candidate_vertices(Matrix([[1, 2], [5, 7]]), 1, ShapeFamily.all_shapes(2, 1))
        assert len(cand.members) == 1
        assert cand.members[0] == Matrix([[3], [12]])

    def test_family_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            candidate_vertices(Matrix([[1, 2]]), 2, ShapeFamily.all_shapes(3, 2))

    def test_candidate_capacity_guard(self):
        limits = EnumerationLimits(max_candidates=2)
        with pytest.raises(CapacityError):
            candidate_vertices(Matrix([[1, 2, 3]]), 2, ShapeFamily.all_shapes(3, 2), limits)


class TestIsVertex:
    # A candidate is a vertex when it is no convex combination of the others.
    def test_midpoint_is_not_a_vertex(self):
        assert not is_vertex(1, [0, 1, 2])

    def test_endpoint_is_a_vertex(self):
        assert is_vertex(0, [0, 1, 2])

    def test_singleton_is_a_vertex(self):
        assert is_vertex(7, [7])

    def test_agrees_with_report(self):
        rng = random.Random(31)
        a = random_matrix(rng, 2, 5)
        family = ShapeFamily.all_shapes(5, 2)
        report = enumerate_vertices(a, 2, family)
        vertex_keys = {m.flatten() for m in report.vertices}
        members = [m.flatten() for m in report.candidates.members]
        for member in members:
            others = [m for m in members if m != member]
            assert (not convex_combination_exists(member, others)) == (member in vertex_keys)

    def test_agrees_with_exhaustive_oracle_on_small_sets(self, nonvertex_by_affine_bases):
        rng = random.Random(33)
        tried = 0
        for _ in range(20):
            a = random_matrix(rng, 1, rng.randint(2, 4))
            family = ShapeFamily.all_shapes(a.ncols, 2)
            cand = candidate_vertices(a, 2, family)
            if len(cand.members) > 12:
                continue
            tried += 1
            for member in cand.members:
                others = [m.flatten() for m in cand.members if m != member]
                assert convex_combination_exists(member.flatten(), others) == (
                    nonvertex_by_affine_bases(member.flatten(), others)
                )
        assert tried >= 5


class TestEnumerateVertices:
    def test_cube(self):
        report = enumerate_vertices(Matrix.identity(3), 2, ShapeFamily.all_shapes(3, 2))
        assert report.vertex_count == 8

    def test_permutohedron(self):
        report = enumerate_vertices(
            Matrix([[1, 2, 3]]), 3, ShapeFamily.explicit([(1, 1, 1)], 3, 3)
        )
        assert report.vertex_count == 6

    def test_single_shape_point(self):
        report = enumerate_vertices(
            Matrix([[1, 2, 3]]), 2, ShapeFamily.explicit([(3, 0)], 3, 2)
        )
        assert report.vertex_count == 1
        assert report.vertices[0] == Matrix([[6, 0]])
        assert report.witnesses[0][0].blocks == ((1, 2, 3), ())

    def test_output_is_sorted_row_major(self):
        rng = random.Random(17)
        report = enumerate_vertices(random_matrix(rng, 2, 5), 2, ShapeFamily.all_shapes(5, 2))
        keys = [m.flatten() for m in report.vertices]
        assert keys == sorted(keys)

    def test_matches_brute_on_random_instances(self):
        rng = random.Random(19)
        for _ in range(8):
            k = rng.randint(1, 2)
            n = rng.randint(2, 6)
            p = rng.randint(1, 3)
            a = random_matrix(rng, k, n)
            family = ShapeFamily.all_shapes(n, p)
            report = enumerate_vertices(a, p, family)
            reference = brute_vertices(a, p, family)
            assert [m.flatten() for m in report.vertices] == [m.flatten() for m in reference]

    @settings(max_examples=60, deadline=None, database=None)
    @given(edge_problems())
    @example((Matrix([[]], ncols=0), 3, ShapeFamily.all_shapes(0, 3), Matrix([[1, -2, 3]])))
    @example((Matrix([[0, 0]]), 3, ShapeFamily.bounds([0, 0, 0], [2, 1, 1], 2), Matrix([[1, 2, 3]])))
    @example((
        Matrix([[F(1, 2 ** 61 + 1), F(1, 2 ** 61 + 1), F(-5, 2 ** 62 + 3)], [0, 0, 1]]), 2,
        ShapeFamily.explicit([(1, 2), (3, 0)], 3, 2), Matrix([[1, -1], [2, 0]]),
    ))
    def test_edge_inputs_match_brute(self, problem):
        a, p, family, cost = problem
        report = enumerate_vertices(a, p, family)
        reference = brute_vertices(a, p, family)
        assert [m.flatten() for m in report.vertices] == [m.flatten() for m in reference]
        objective = LinearObjective(cost)
        assert solve(a, p, family, objective).best_value == brute_solve(a, p, family, objective)

    @pytest.mark.parametrize("k, n, p", [(1, 5, 4), (1, 6, 4), (2, 5, 4), (1, 4, 5)])
    def test_matches_brute_at_four_and_five_parts(self, k, n, p):
        a = random_matrix(random.Random(100 * k + n), k, n)
        family = ShapeFamily.all_shapes(n, p)
        report = enumerate_vertices(a, p, family)
        reference = brute_vertices(a, p, family, force=p > 4)
        assert [m.flatten() for m in report.vertices] == [m.flatten() for m in reference]

    def test_brute_vertices_inside_candidates(self):
        rng = random.Random(29)
        for _ in range(8):
            k = rng.randint(1, 2)
            n = rng.randint(2, 6)
            p = rng.randint(2, 3)
            a = random_matrix(rng, k, n)
            family = ShapeFamily.all_shapes(n, p)
            members = {m.flatten() for m in candidate_vertices(a, p, family).members}
            for matrix in brute_vertices(a, p, family):
                assert matrix.flatten() in members

    def test_relabeling_invariance(self):
        rng = random.Random(37)
        for _ in range(6):
            k = rng.randint(1, 2)
            n = rng.randint(2, 5)
            p = rng.randint(2, 3)
            a = random_matrix(rng, k, n)
            family = ShapeFamily.all_shapes(n, p)
            base = {m.flatten() for m in enumerate_vertices(a, p, family).vertices}
            order = rng.sample(range(n), n)
            shuffled = Matrix.from_columns([a.column(j) for j in order])
            permuted = {m.flatten() for m in enumerate_vertices(shuffled, p, family).vertices}
            assert base == permuted

    def test_single_shape_translation_covariance(self):
        rng = random.Random(41)
        for _ in range(6):
            k = rng.randint(1, 2)
            n = rng.randint(2, 5)
            p = rng.randint(2, 3)
            a = random_matrix(rng, k, n)
            shape = tuple(sum(1 for e in range(n) if e % p == j) for j in range(p))
            family = ShapeFamily.explicit([shape], n, p)
            shift = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k)]
            moved = Matrix([[a.entry(r, c) + shift[r] for c in range(n)] for r in range(k)])

            base = enumerate_vertices(a, p, family)
            translated = enumerate_vertices(moved, p, family)
            expected = {
                Matrix(
                    [[m.entry(r, j) + shape[j] * shift[r] for j in range(p)] for r in range(k)]
                ).flatten()
                for m in base.vertices
            }
            assert {m.flatten() for m in translated.vertices} == expected
