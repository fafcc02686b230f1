import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import HUGE_PROBLEMS, TRANSLATIONS, convex_combination_exists, edge_problems
from shapedparts import cli, polytope
from shapedparts.brute import brute_solve, brute_vertices, enumerate_all_partitions
from shapedparts.errors import CapacityError, DimensionError
from shapedparts.generic import EnumerationLimits, PerturbedMatrix, enumerate_generic_p_partitions
from shapedparts.linalg import Matrix
from shapedparts.objectives import LinearObjective
from shapedparts.partitions import (
    Partition,
    ShapeFamily,
    compositions,
    lift,
    partition_matrix,
    shape_of,
)
from shapedparts.polytope import admissible_partitions, candidate_vertices, enumerate_vertices
from shapedparts.solver import solve


def is_vertex(value, values):
    """Whether 1x1 value is extreme among the distinct 1x1 values."""
    return not convex_combination_exists((F(value),), [(F(v),) for v in values if v != value])


def random_matrix(rng, k, n):
    return Matrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)])


def reference_candidates(a, p, family):
    """Members and witnesses by the plain per-partition scan: one part-sum
    matrix per admissible generic partition, grouped by its entries."""
    grouped = {}
    for pi in enumerate_generic_p_partitions(PerturbedMatrix(lift(a)), p):
        if family.contains(shape_of(pi)):
            matrix = partition_matrix(a, pi)
            grouped.setdefault(matrix.flatten(), (matrix, []))[1].append(pi)
    keys = sorted(grouped)
    return [grouped[key][0] for key in keys], [tuple(grouped[key][1]) for key in keys]


class TestCandidates:
    def test_cube_candidates(self):
        a, family = Matrix.identity(3), ShapeFamily.all_shapes(3, 2)
        cand = candidate_vertices(a, 2, family)
        assert len(cand.members) == 8
        assert len({m.flatten() for m in cand.members}) == 8
        report = enumerate_vertices(a, 2, family)
        assert report.vertices == cand.members
        for vertex, witnesses in zip(report.vertices, report.witnesses):
            assert witnesses
            for pi in witnesses:
                first = pi.blocks[0]
                expected_col = [F(1) if i in first else F(0) for i in range(1, 4)]
                assert list(vertex.column(0)) == expected_col

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

    @pytest.mark.parametrize("problem", HUGE_PROBLEMS)
    def test_huge_part_sums_match_reference_scan(self, problem, monkeypatch):
        a, p, family = problem
        cand = candidate_vertices(a, p, family)
        members, witnesses = reference_candidates(a, p, family)
        assert list(cand.members) == members
        assert cand.admissible_count == sum(map(len, witnesses))
        # With every candidate kept as a vertex, the report's witnesses are
        # the whole grouping (and no slow exact hull runs on entries of 1e400).
        monkeypatch.setattr(polytope, "extreme_point_indices",
                            lambda rows, scale, parts: list(range(len(rows))))
        report = enumerate_vertices(a, p, family)
        assert list(report.vertices) == members
        assert list(report.witnesses) == witnesses


class TestAdmissibleStage:
    def test_predicate_asked_once_per_distinct_shape(self):
        a = Matrix([[3, -1, 4, 1, -5, 2, 2]])
        asked = []

        def admits(shape):
            return shape[0] <= shape[1] or shape[2] == 0

        def counting(shape):
            asked.append(shape)
            return admits(shape)

        generic_set = enumerate_generic_p_partitions(PerturbedMatrix(lift(a)), 3)
        family = ShapeFamily.from_predicate(counting, 7, 3)
        admissible = admissible_partitions(a, generic_set, family)
        shapes = [shape_of(pi) for pi in generic_set]
        assert len(asked) == len(set(asked)) == len(set(shapes)) < len(shapes)
        # in order of first occurrence in the canonical generic order
        assert asked == list(dict.fromkeys(shapes))
        expected = [pi for pi in generic_set if admits(shape_of(pi))]
        assert 0 < len(expected) < len(generic_set)
        assert list(generic_set.select(admissible.rows)) == expected

    def test_no_package_path_asks_contains(self, monkeypatch):
        # The pipeline and the brute-force walk check the family once and
        # decide shapes they built themselves without validating them again.
        a = Matrix([[2, -1, 0, 3, 1], [1, 1, -2, 0, 1]])
        family = ShapeFamily.bounds([0, 1, 1], [3, 3, 2], 5)
        objective = LinearObjective(Matrix([[1, 0, -1], [0, 2, 1]]))
        expected = (
            enumerate_vertices(a, 3, family).vertices,
            solve(a, 3, family, objective).best_value,
            brute_vertices(a, 3, family).vertices,
            brute_solve(a, 3, family, objective),
            [pi for pi in enumerate_all_partitions(5, 3, ShapeFamily.all_shapes(5, 3))
             if family.contains(shape_of(pi))],
        )

        def refuse(self, shape):
            raise AssertionError(f"contains asked for {shape}")

        monkeypatch.setattr(ShapeFamily, "contains", refuse)
        assert (
            enumerate_vertices(a, 3, family).vertices,
            solve(a, 3, family, objective).best_value,
            brute_vertices(a, 3, family).vertices,
            brute_solve(a, 3, family, objective),
            list(enumerate_all_partitions(5, 3, family)),
        ) == expected

    def test_groups_number_matrices_in_lexicographic_order(self):
        # columns 1 and 3, 2 and 5 repeat; the common denominator is 6
        a = Matrix([[2, -1, 2, 0, -1, 3], [F(1, 2), 0, F(1, 2), 1, 0, F(-2, 3)]])
        generic_set = enumerate_generic_p_partitions(PerturbedMatrix(lift(a)), 3)
        admissible = admissible_partitions(a, generic_set, ShapeFamily.all_shapes(6, 3))
        matrices = [partition_matrix(a, pi) for pi in generic_set.select(admissible.rows)]
        distinct = sorted(set(matrices), key=Matrix.flatten)
        assert len(distinct) < len(matrices)
        assert [admissible.matrix(g) for g in admissible.group] == matrices
        assert [admissible.matrix(g) for g in range(len(distinct))] == distinct
        assert admissible.sums.scale == 6
        assert admissible.keys == [tuple(6 * x for x in m.flatten()) for m in distinct]


class TestConstructions:
    def test_objects_only_for_reported_vertices(self, monkeypatch, tmp_path, capsys):
        # k = 2, n = 5, p = 3, a zero column and a repeated one: the vertices
        # have several witnesses each, and most candidates are not vertices.
        a = Matrix([[F(1, 2), -1, 0, F(1, 2), 3], [1, 0, 0, 1, F(2, 3)]])
        family = ShapeFamily.all_shapes(5, 3)
        built = []
        matrix_init, partition_check = Matrix.__init__, Partition.__post_init__

        def counting_init(self, *args, **kwargs):
            matrix_init(self, *args, **kwargs)
            built.append(self.shape)

        def counting_check(self):
            partition_check(self)
            built.append("partition")

        monkeypatch.setattr(Matrix, "__init__", counting_init)
        monkeypatch.setattr(Partition, "__post_init__", counting_check)
        cand = candidate_vertices(a, 3, family)
        assert "partition" not in built and (2, 3) not in built
        report = enumerate_vertices(a, 3, family)
        assert "partition" not in built and (2, 3) not in built
        vertices = report.vertices
        assert built.count((2, 3)) == report.vertex_count < len(cand)
        assert "partition" not in built
        witnesses = sum(map(len, report.witnesses))
        assert built.count("partition") == witnesses < cand.admissible_count
        assert witnesses > report.vertex_count
        assert built.count((2, 3)) == report.vertex_count and report.vertices is vertices

        # count and a matching check, with or without an objective, build no
        # part-sum matrix and no partition; solve builds the winner's. The
        # objective has no cost matrix, which loading would build as (2, 3).
        doc = {"matrix": [["1/2", -1, 0, "1/2", 3], [1, 0, 0, 1, "2/3"]], "p": 3,
               "shapes": {"type": "all"}}
        plain, with_objective = tmp_path / "plain.json", tmp_path / "objective.json"
        plain.write_text(json.dumps(doc))
        with_objective.write_text(json.dumps(
            {**doc, "objective": {"type": "sum_column_norm_pow", "q": 2}}))
        for command, path, objects in (
            ("count", plain, 0), ("check", plain, 0), ("check", with_objective, 0),
            ("solve", with_objective, 1),
        ):
            built.clear()
            assert cli.main([command, str(path)]) == 0  # a check exits 0 iff it matches
            assert built.count("partition") == built.count((2, 3)) == objects, command
        capsys.readouterr()


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
            reference = brute_vertices(a, p, family).vertices
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
        reference = brute_vertices(a, p, family).vertices
        assert [m.flatten() for m in report.vertices] == [m.flatten() for m in reference]
        objective = LinearObjective(cost)
        assert solve(a, p, family, objective).best_value == brute_solve(a, p, family, objective)

    @pytest.mark.parametrize("k, n, p", [(1, 5, 4), (1, 6, 4), (2, 5, 4), (1, 4, 5)])
    def test_matches_brute_at_four_and_five_parts(self, k, n, p):
        a = random_matrix(random.Random(100 * k + n), k, n)
        family = ShapeFamily.all_shapes(n, p)
        report = enumerate_vertices(a, p, family)
        reference = brute_vertices(a, p, family, force=p > 4).vertices
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
            for matrix in brute_vertices(a, p, family).vertices:
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


class TestVertexInvariants:
    """Hypothesis properties on the edge inputs: zero and duplicate columns,
    n = 0, p > n and denominators past 2^61."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(edge_problems(), st.randoms(use_true_random=False))
    def test_relabeling_keeps_vertex_set(self, problem, rng):
        a, p, _, _ = problem
        family = ShapeFamily.all_shapes(a.ncols, p)
        order = rng.sample(range(a.ncols), a.ncols)
        shuffled = Matrix([[row[j] for j in order] for row in a.rows()], ncols=a.ncols)
        assert {m.flatten() for m in enumerate_vertices(shuffled, p, family).vertices} == {
            m.flatten() for m in enumerate_vertices(a, p, family).vertices
        }

    @settings(max_examples=40, deadline=None, database=None)
    @given(edge_problems(), st.integers(1, 6))
    def test_scaling_scales_each_vertex(self, problem, c):
        a, p, family, _ = problem
        scaled = Matrix([[c * x for x in row] for row in a.rows()], ncols=a.ncols)
        base = enumerate_vertices(a, p, family)
        report = enumerate_vertices(scaled, p, family)
        assert [m.flatten() for m in report.vertices] == [
            tuple(c * x for x in m.flatten()) for m in base.vertices
        ]
        assert [[pi.blocks for pi in w] for w in report.witnesses] == [
            [pi.blocks for pi in w] for w in base.witnesses
        ]

    @settings(max_examples=40, deadline=None, database=None)
    @given(edge_problems(), st.data())
    def test_single_shape_translation_moves_each_vertex(self, problem, data):
        a, p, _, _ = problem
        k, n = a.nrows, a.ncols
        shape = data.draw(st.sampled_from(list(compositions(n, p))))
        family = ShapeFamily.explicit([shape], n, p)
        shift = data.draw(st.lists(TRANSLATIONS, min_size=k, max_size=k))
        moved = Matrix([[x + shift[r] for x in a.row(r)] for r in range(k)], ncols=n)
        expected = {
            tuple(m.entry(r, j) + shape[j] * shift[r] for r in range(k) for j in range(p))
            for m in enumerate_vertices(a, p, family).vertices
        }
        assert {m.flatten() for m in enumerate_vertices(moved, p, family).vertices} == expected
