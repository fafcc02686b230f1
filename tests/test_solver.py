import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from shapedparts.brute import brute_solve
from shapedparts.errors import DimensionError
from shapedparts.linalg import Matrix
from shapedparts.objectives import (
    ColumnPowerObjective,
    DiagonalPowerObjective,
    ExternalOracle,
    LinearObjective,
    MaxCutObjective,
)
from shapedparts.partitions import ShapeFamily, partition_matrix, shape_of
from shapedparts.polytope import candidate_vertices, enumerate_vertices
from shapedparts.solver import solve

ORACLE = [sys.executable, str(Path(__file__).parent / "data" / "square_oracle.py")]


def splitting_instance():
    a = Matrix([["3/5", "3/10"], ["2/5", "7/10"]])
    return a, ShapeFamily.explicit([(1, 1)], 2, 2)


class TestSolveExamples:
    def test_splitting(self):
        a, family = splitting_instance()
        report = solve(a, 2, family, DiagonalPowerObjective(2))
        assert report.best_value == F(17, 20)
        assert report.best_partition.blocks == ((1,), (2,))
        assert report.evaluations == 2

    def test_linear_concentrates_everything(self):
        report = solve(
            Matrix([[1, 2, 3]]), 2, ShapeFamily.all_shapes(3, 2),
            LinearObjective(Matrix([[1, 0]])),
        )
        assert report.best_value == 6
        assert report.best_partition.blocks == ((1, 2, 3), ())

    def test_triangle_max_cut(self):
        report = solve(
            Matrix.identity(3), 2, ShapeFamily.all_shapes(3, 2),
            MaxCutObjective([(1, 2), (1, 3), (2, 3)]),
        )
        assert report.best_value == 2
        assert report.evaluations == 8

    def test_incompatible_objective_rejected(self):
        with pytest.raises(DimensionError):
            solve(
                Matrix([[1, 2]]), 2, ShapeFamily.all_shapes(2, 2),
                LinearObjective(Matrix([[1, 0], [0, 1]])),
            )


class TestSolveInvariants:
    def test_report_is_internally_consistent(self):
        rng = random.Random(51)
        for _ in range(6):
            k = rng.randint(1, 2)
            n = rng.randint(2, 6)
            p = rng.randint(1, 3)
            a = Matrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)])
            family = ShapeFamily.all_shapes(n, p)
            objective = ColumnPowerObjective(2)
            report = solve(a, p, family, objective)
            assert family.contains(shape_of(report.best_partition))
            assert partition_matrix(a, report.best_partition) == report.best_matrix
            assert objective.evaluate(report.best_matrix) == report.best_value

    def test_evaluation_count_is_admissible_count(self):
        rng = random.Random(53)
        for _ in range(6):
            k = rng.randint(1, 2)
            n = rng.randint(2, 6)
            p = rng.randint(1, 3)
            a = Matrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)])
            family = ShapeFamily.bounds([0] * p, [n] * p, n)
            report = solve(a, p, family, ColumnPowerObjective(2))
            assert report.evaluations == candidate_vertices(a, p, family).admissible_count

    def test_matches_brute_force(self):
        rng = random.Random(57)
        for _ in range(8):
            k = rng.randint(1, 2)
            n = rng.randint(2, 6)
            p = rng.randint(1, 3)
            a = Matrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)])
            family = ShapeFamily.all_shapes(n, p)
            objective = (
                LinearObjective(Matrix([[rng.randint(-5, 5) for _ in range(p)] for _ in range(k)]))
                if rng.random() < 0.5 else ColumnPowerObjective(2)
            )
            assert solve(a, p, family, objective).best_value == brute_solve(a, p, family, objective)

    @pytest.mark.parametrize("k, n", [(1, 5), (1, 6), (2, 5)])
    def test_matches_brute_force_at_four_parts(self, k, n):
        rng = random.Random(100 * k + n)
        a = Matrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)])
        family = ShapeFamily.all_shapes(n, 4)
        cost = Matrix([[rng.randint(-5, 5) for _ in range(4)] for _ in range(k)])
        for objective in (LinearObjective(cost), ColumnPowerObjective(2)):
            assert solve(a, 4, family, objective).best_value == brute_solve(a, 4, family, objective)

    def test_linear_objective_matches_vertex_maximum(self):
        rng = random.Random(59)
        for _ in range(6):
            k = rng.randint(1, 2)
            n = rng.randint(2, 5)
            p = rng.randint(2, 3)
            a = Matrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)])
            family = ShapeFamily.all_shapes(n, p)
            cost = Matrix([[rng.randint(-5, 5) for _ in range(p)] for _ in range(k)])
            objective = LinearObjective(cost)
            best = solve(a, p, family, objective).best_value
            report = enumerate_vertices(a, p, family)
            assert best == max(objective.evaluate(v) for v in report.vertices)


class TestExternalSolve:
    def test_external_matches_builtin(self):
        a = Matrix([[2, -1, 3]])
        family = ShapeFamily.all_shapes(3, 2)
        with ExternalOracle(ORACLE) as oracle:
            external = solve(a, 2, family, oracle)
        builtin = solve(a, 2, family, ColumnPowerObjective(2))
        assert external.best_value == builtin.best_value
        assert external.evaluations == builtin.evaluations
