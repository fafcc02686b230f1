import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import HUGE_PROBLEMS, TRANSLATIONS, edge_problems
from shapedparts.brute import brute_solve
from shapedparts.errors import DimensionError
from shapedparts.generic import PerturbedMatrix, enumerate_generic_p_partitions
from shapedparts.linalg import Matrix, as_rational
from shapedparts.objectives import (
    ColumnPowerObjective,
    DiagonalPowerObjective,
    ExternalOracle,
    LinearObjective,
    MaxCutObjective,
    Objective,
)
from shapedparts.partitions import (
    Partition,
    PartSums,
    ShapeFamily,
    compositions,
    lift,
    partition_matrix,
    shape_of,
)
from shapedparts.polytope import candidate_vertices, enumerate_vertices
from shapedparts.solver import solve

ORACLE = [sys.executable, str(Path(__file__).parent / "data" / "square_oracle.py")]


def admissible_scan(a, p, family):
    """The admissible generic partitions in canonical order."""
    generic_set = enumerate_generic_p_partitions(PerturbedMatrix(lift(a)), p)
    return [pi for pi in generic_set if family.contains(shape_of(pi))]


def report_fields(report):
    """The four fields of a SolveReport, in the order reference_solve gives them."""
    return report.best_partition, report.best_matrix, report.best_value, report.evaluations


def reference_solve(a, p, family, objective):
    """The plain per-partition scan: one part-sum matrix and one evaluation
    per admissible partition, first maximizer wins. Returns the fields of
    `report_fields`."""
    admissible = admissible_scan(a, p, family)
    matrices = [partition_matrix(a, pi) for pi in admissible]
    values = [objective.evaluate(m) for m in matrices]
    best_index = 0
    for i in range(1, len(values)):
        if values[i] > values[best_index]:
            best_index = i
    return admissible[best_index], matrices[best_index], values[best_index], len(admissible)


class ConstantObjective(Objective):
    """The same value everywhere, so every partition ties."""

    def evaluate(self, matrix):
        return F(7)


class CountingObjective(Objective):
    """Records every matrix it is asked about, then defers to `inner`."""

    def __init__(self, inner):
        self.inner = inner
        self.queried = []

    def evaluate(self, matrix):
        self.queried.append(matrix)
        return self.inner.evaluate(matrix)


def edge_objective(kind, cost):
    if kind == "linear":
        return LinearObjective(cost)
    if kind == "column_power":
        return ColumnPowerObjective(2)
    return ConstantObjective()


OBJECTIVE_KINDS = st.sampled_from(["linear", "column_power", "constant"])


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

    def test_family_admitting_nothing_rejected(self):
        a = Matrix([[1, 2, 3]])
        family = ShapeFamily.from_predicate(lambda shape: False, 3, 2)
        objective = LinearObjective(Matrix([[1, 0]]))
        with pytest.raises(DimensionError, match="admits no partition"):
            solve(a, 2, family, objective)
        with pytest.raises(DimensionError, match="admits no partition"):
            brute_solve(a, 2, family, objective)
        assert enumerate_vertices(a, 2, family).vertex_count == 0


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

    @settings(max_examples=60, deadline=None, database=None)
    @given(edge_problems(), OBJECTIVE_KINDS)
    @example((Matrix([[]], ncols=0), 3, ShapeFamily.all_shapes(0, 3), Matrix([[1, -2, 3]])), "linear")
    @example((Matrix([[0, 0, 1, 1]]), 3, ShapeFamily.all_shapes(4, 3), Matrix([[0, 0, 0]])), "linear")
    @example((
        Matrix([[F(1, 2 ** 61 + 1), F(1, 2 ** 61 + 1), F(-5, 2 ** 62 + 3)], [0, 0, 1]]), 2,
        ShapeFamily.explicit([(1, 2), (3, 0)], 3, 2), Matrix([[1, -1], [2, 0]]),
    ), "constant")
    def test_edge_inputs_match_reference_scan(self, problem, kind):
        a, p, family, cost = problem
        objective = edge_objective(kind, cost)
        expected = reference_solve(a, p, family, objective)
        assert report_fields(solve(a, p, family, objective)) == expected

    @settings(max_examples=30, deadline=None, database=None)
    @given(edge_problems(), OBJECTIVE_KINDS)
    def test_objective_sees_every_admissible_partition_in_order(self, problem, kind):
        a, p, family, cost = problem
        objective = CountingObjective(edge_objective(kind, cost))
        report = solve(a, p, family, objective)
        admissible = admissible_scan(a, p, family)
        assert report.evaluations == len(objective.queried) == len(admissible)
        assert objective.queried == [partition_matrix(a, pi) for pi in admissible]

    @settings(max_examples=40, deadline=None, database=None)
    @given(edge_problems(), OBJECTIVE_KINDS, st.randoms(use_true_random=False))
    def test_relabeling_keeps_best_value(self, problem, kind, rng):
        a, p, _, cost = problem
        family = ShapeFamily.all_shapes(a.ncols, p)
        order = rng.sample(range(a.ncols), a.ncols)
        shuffled = Matrix([[row[j] for j in order] for row in a.rows()], ncols=a.ncols)
        objective = edge_objective(kind, cost)
        assert solve(shuffled, p, family, objective).best_value == (
            solve(a, p, family, objective).best_value
        )

    @settings(max_examples=40, deadline=None, database=None)
    @given(edge_problems(), st.integers(1, 6))
    def test_scaling_scales_linear_best_value(self, problem, c):
        a, p, family, cost = problem
        scaled = Matrix([[c * x for x in row] for row in a.rows()], ncols=a.ncols)
        objective = LinearObjective(cost)
        assert solve(scaled, p, family, objective).best_value == (
            c * solve(a, p, family, objective).best_value
        )

    @settings(max_examples=40, deadline=None, database=None)
    @given(edge_problems(), st.data())
    def test_single_shape_translation_shifts_linear_best_value(self, problem, data):
        a, p, _, cost = problem
        k, n = a.nrows, a.ncols
        shape = data.draw(st.sampled_from(list(compositions(n, p))))
        family = ShapeFamily.explicit([shape], n, p)
        shift = data.draw(st.lists(TRANSLATIONS, min_size=k, max_size=k))
        moved = Matrix([[x + shift[r] for x in a.row(r)] for r in range(k)], ncols=n)
        objective = LinearObjective(cost)
        offset = sum(cost.entry(r, j) * shape[j] * shift[r] for r in range(k) for j in range(p))
        assert solve(moved, p, family, objective).best_value == (
            solve(a, p, family, objective).best_value + offset
        )

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


class TestBatchEvaluation:
    @pytest.fixture
    def built(self, monkeypatch):
        """The keys of every part-sum Matrix built, in order."""
        keys = []
        matrix = PartSums.matrix

        def spy(sums, key):
            keys.append(key)
            return matrix(sums, key)

        monkeypatch.setattr(PartSums, "matrix", spy)
        return keys

    @pytest.mark.parametrize("a, p, objective", [
        (Matrix([[1, 2, -3, 2, 0]]), 2, LinearObjective(Matrix([[1, -1]]))),
        (Matrix([["1/2", 2, -3, 2]]), 3, ColumnPowerObjective(2)),
        (Matrix([[1, 0, 2, -1], [0, "1/3", 1, 1]]), 2, DiagonalPowerObjective(3)),
        (Matrix.identity(4), 2, MaxCutObjective([(1, 2), (2, 3), (3, 4)])),
    ])
    def test_builtins_build_the_winner_only(self, built, monkeypatch, a, p, objective):
        partitions = []
        check = Partition.__post_init__
        monkeypatch.setattr(Partition, "__post_init__", lambda pi: check(pi) or partitions.append(pi))
        family = ShapeFamily.all_shapes(a.ncols, p)
        report = solve(a, p, family, objective)
        assert report.evaluations > 1
        assert built == [] and partitions == []  # nothing until the first read
        assert report.best_blocks.base is None  # no view of the generic block array
        best_matrix = report.best_matrix
        assert len(built) == 1 and partitions == []
        best_partition = report.best_partition
        assert report.best_matrix is best_matrix and report.best_partition is best_partition
        assert len(built) == 1 and partitions == [best_partition]  # built once each
        assert partition_matrix(a, best_partition) == best_matrix == PartSums(a, p).matrix(built[0])
        built.clear()
        assert brute_solve(a, p, family, objective) == report.best_value
        assert built == []

    @settings(max_examples=30, deadline=None, database=None)
    @given(edge_problems())
    def test_zero_cost_ties_go_to_the_first_admissible_partition(self, problem):
        a, p, family, _ = problem
        zero = Matrix([[0] * p for _ in range(a.nrows)], ncols=p)
        first = admissible_scan(a, p, family)[0]
        for objective in (LinearObjective(zero), ConstantObjective()):
            report = solve(a, p, family, objective)
            assert report.best_partition == first
            assert report.best_matrix == partition_matrix(a, first)

    @pytest.mark.parametrize("objective", [ColumnPowerObjective(2), ConstantObjective()])
    def test_repeated_keys_and_tied_values_go_to_the_first_maximizer(self, objective):
        # Repeated columns give several partitions per part-sum matrix, and
        # swapping the parts gives distinct matrices of the same value.
        a = Matrix([[1, 1, 2, 2, 0], [0, 0, 1, 1, 3]])
        family = ShapeFamily.all_shapes(a.ncols, 3)
        admissible = admissible_scan(a, 3, family)
        matrices = [partition_matrix(a, pi) for pi in admissible]
        values = [objective.evaluate(m) for m in matrices]
        best = max(values)
        assert len(set(matrices)) < len(matrices)
        assert len({m for m, v in zip(matrices, values) if v == best}) > 1
        expected = reference_solve(a, 3, family, objective)
        assert report_fields(solve(a, 3, family, objective)) == expected

    @pytest.mark.parametrize("a, p, objective", [
        (Matrix([[0, 1], [1, 0]]), 2, MaxCutObjective([(1, 2)])),
        (Matrix([[1, 2, 3]]), 2, DiagonalPowerObjective(2)),
        (Matrix([[1, 2]]), 2, LinearObjective(Matrix([[1, 0], [0, 1]]))),
    ])
    def test_incompatible_objective_fails_alike_on_both_sides(self, a, p, objective):
        asked = []
        family = ShapeFamily.from_predicate(lambda shape: asked.append(shape) or True, a.ncols, p)
        with pytest.raises(DimensionError) as fast:
            solve(a, p, family, objective)
        with pytest.raises(DimensionError) as brute:
            brute_solve(a, p, family, objective)
        assert str(fast.value) == str(brute.value)
        assert asked == []  # both refuse before enumerating


class TestSolveLargeInputs:
    def test_multi_word_masks_match_reference_scan(self):
        rng = random.Random(65)
        a = Matrix([[rng.randint(-5, 5) for _ in range(65)]])
        family = ShapeFamily.all_shapes(65, 2)
        objective = ColumnPowerObjective(2)
        expected = reference_solve(a, 2, family, objective)
        assert report_fields(solve(a, 2, family, objective)) == expected

    @pytest.mark.parametrize("problem", HUGE_PROBLEMS)
    @pytest.mark.parametrize("kind", ["linear", "column_power", "constant"])
    def test_huge_part_sums_match_reference_scan(self, problem, kind):
        a, p, family = problem
        cost = Matrix([[(-1) ** (r + j) * (j + 1) for j in range(p)] for r in range(a.nrows)])
        objective = edge_objective(kind, cost)
        expected = reference_solve(a, p, family, objective)
        assert report_fields(solve(a, p, family, objective)) == expected


class TestExternalSolve:
    def test_external_matches_builtin(self):
        a = Matrix([[2, -1, 3]])
        family = ShapeFamily.all_shapes(3, 2)
        with ExternalOracle(ORACLE) as oracle:
            external = solve(a, 2, family, oracle)
        builtin = solve(a, 2, family, ColumnPowerObjective(2))
        assert external.best_value == builtin.best_value
        assert external.evaluations == builtin.evaluations

    def test_oracle_asked_once_per_distinct_matrix_in_first_order(self, tmp_path):
        log = tmp_path / "queries.log"
        logger = (
            "import sys\n"
            "for line in sys.stdin:\n"
            f"    with open({str(log)!r}, 'a') as handle:\n"
            "        handle.write(line)\n"
            "    print(len(line), flush=True)\n"
        )
        a = Matrix([[2, -1, 2, 0, -1, 3]])  # columns 1 and 3, 2 and 5 repeat
        family = ShapeFamily.all_shapes(6, 3)
        with ExternalOracle([sys.executable, "-c", logger]) as oracle:
            report = solve(a, 3, family, oracle)
        admissible = admissible_scan(a, 3, family)
        distinct = []
        for pi in admissible:
            rows = partition_matrix(a, pi).rows()
            if rows not in distinct:
                distinct.append(rows)
        queried = [
            tuple(tuple(as_rational(x) for x in row) for row in json.loads(line))
            for line in log.read_text().splitlines()
        ]
        assert report.evaluations == len(admissible) > len(distinct)
        assert queried == distinct
