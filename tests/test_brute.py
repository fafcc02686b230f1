import json
import random
from collections import Counter
from fractions import Fraction as F
from itertools import product
from math import factorial
from pathlib import Path

import pytest

from conftest import objective_definition
from shapedparts import cli
from shapedparts.brute import (
    _CHUNK_ELEMENTS,
    _assignment_chunks,
    _low_digits,
    brute_solve,
    brute_vertices,
    enumerate_all_partitions,
)
from shapedparts.errors import CapacityError, DimensionError
from shapedparts.hull import extreme_point_indices
from shapedparts.linalg import Matrix, integer_rows
from shapedparts.objectives import (
    ColumnPowerObjective,
    DiagonalPowerObjective,
    LinearObjective,
    MaxCutObjective,
)
from shapedparts.partitions import (
    ShapeFamily,
    compositions,
    ordered_partition,
    partition_matrix,
    shape_of,
)
from shapedparts.problems import load_problem

DATA = Path(__file__).parent / "data"


def multinomial(shape):
    total = factorial(sum(shape))
    for part in shape:
        total //= factorial(part)
    return total


class TestEnumerateAll:
    def test_two_by_two(self):
        family = ShapeFamily.all_shapes(2, 2)
        assert sum(1 for _ in enumerate_all_partitions(2, 2, family)) == 4

    def test_permutation_shapes(self):
        family = ShapeFamily.explicit([(1, 1, 1)], 3, 3)
        partitions = list(enumerate_all_partitions(3, 3, family))
        assert len(partitions) == 6
        assert all(shape_of(pi) == (1, 1, 1) for pi in partitions)

    def test_single_shape_single_partition(self):
        family = ShapeFamily.explicit([(3, 0)], 3, 2)
        partitions = list(enumerate_all_partitions(3, 2, family))
        assert len(partitions) == 1
        assert partitions[0].blocks == ((1, 2, 3), ())

    def test_each_exactly_once(self):
        family = ShapeFamily.all_shapes(4, 3)
        seen = [pi.blocks for pi in enumerate_all_partitions(4, 3, family)]
        assert len(seen) == len(set(seen)) == 3 ** 4

    def test_count_matches_multinomials(self):
        rng = random.Random(61)
        for _ in range(6):
            n = rng.randint(1, 6)
            p = rng.randint(1, 3)
            family = ShapeFamily.all_shapes(n, p)
            count = sum(1 for _ in enumerate_all_partitions(n, p, family))
            shapes = [s for s in compositions(n, p) if family.contains(s)]
            assert count == sum(multinomial(s) for s in shapes)

    def test_guards(self):
        family = ShapeFamily.all_shapes(10, 2)
        with pytest.raises(CapacityError):
            list(enumerate_all_partitions(10, 2, family))
        assert sum(1 for _ in enumerate_all_partitions(10, 2, family, force=True)) == 1024
        tall = ShapeFamily.all_shapes(2, 5)
        with pytest.raises(CapacityError):
            list(enumerate_all_partitions(2, 5, tall))


class TestBruteVertices:
    def test_square(self):
        vertices = brute_vertices(Matrix.identity(2), 2, ShapeFamily.all_shapes(2, 2))
        assert len(vertices) == 4

    def test_permutohedron(self):
        vertices = brute_vertices(
            Matrix([[1, 2, 3]]), 3, ShapeFamily.explicit([(1, 1, 1)], 3, 3)
        )
        assert len(vertices) == 6

    def test_midpoint_pruned(self):
        vertices = brute_vertices(Matrix([[1, 1]]), 2, ShapeFamily.all_shapes(2, 2)).vertices
        assert [v.row(0) for v in vertices] == [(F(0), F(2)), (F(2), F(0))]

    def test_input_order_irrelevant(self):
        rng = random.Random(67)
        a = Matrix([[rng.randint(-5, 5) for _ in range(5)] for _ in range(2)])
        family = ShapeFamily.all_shapes(5, 2)
        order = rng.sample(range(5), 5)
        shuffled = Matrix.from_columns([a.column(j) for j in order])
        assert brute_vertices(shuffled, 2, family).vertices == brute_vertices(a, 2, family).vertices


class TestBruteSolve:
    def test_splitting(self):
        a = Matrix([["3/5", "3/10"], ["2/5", "7/10"]])
        family = ShapeFamily.explicit([(1, 1)], 2, 2)
        assert brute_solve(a, 2, family, DiagonalPowerObjective(2)) == F(17, 20)

    def test_triangle_cut(self):
        value = brute_solve(
            Matrix.identity(3), 2, ShapeFamily.all_shapes(3, 2),
            MaxCutObjective([(1, 2), (1, 3), (2, 3)]),
        )
        assert value == 2

    def test_single_part_evaluates_row_sums(self):
        a = Matrix([[1, 2], [1, 5]])
        value = brute_solve(a, 1, ShapeFamily.all_shapes(2, 1), ColumnPowerObjective(2))
        assert value == F(3) ** 2 + F(6) ** 2


def check_result(tmp_path, doc):
    """The one instance result of the CLI `check`, which bundles the brute
    reference's vertex count and optimum with the fast path's."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    target = tmp_path / "check.json"
    assert cli.main(["check", str(path), "--output", str(target)]) == 0
    return json.loads(target.read_text())["results"][0]


class TestBruteReport:
    def test_bundles_everything(self, tmp_path):
        family = ShapeFamily.all_shapes(3, 2)
        assert sum(1 for _ in enumerate_all_partitions(3, 2, family)) == 8
        result = check_result(tmp_path, {
            "matrix": [[1, 2, 3]], "p": 2, "shapes": {"type": "all"},
            "objective": {"type": "sum_column_norm_pow", "q": 2},
        })
        assert result["brute_optimum"] == "36"
        assert result["brute_vertices"] >= 2

    def test_objective_optional(self, tmp_path):
        result = check_result(tmp_path, {"matrix": [[1, 2]], "p": 2, "shapes": {"type": "all"}})
        assert result["brute_vertices"] == 2
        assert "brute_optimum" not in result


def product_partitions(n, p, family):
    """The admissible partitions by a plain loop over the assignment vectors."""
    for assignment in product(range(p), repeat=n):
        if family.contains(tuple(assignment.count(j) for j in range(p))):
            yield ordered_partition(
                [[i for i, part in enumerate(assignment, start=1) if part == j] for j in range(p)], n
            )


def reference(a, p, family, objective):
    """brute_vertices and brute_solve by their definition: the part-sum matrix
    of every admissible partition, the Fraction maximum of the objective over
    them, and the hull of the distinct matrices."""
    matrices = [partition_matrix(a, pi) for pi in product_partitions(a.ncols, p, family)]
    distinct = {m.flatten(): m for m in matrices}
    ordered = [distinct[key] for key in sorted(distinct)]
    keep = extreme_point_indices(*integer_rows(m.flatten() for m in ordered))
    return tuple(ordered[i] for i in keep), max(objective_definition(objective, m) for m in matrices)


def random_problem(seed, k, n, p, family):
    rng = random.Random(seed)
    a = Matrix([[F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)] for _ in range(k)])
    cost = Matrix([[rng.randint(-3, 3) for _ in range(p)] for _ in range(k)])
    return a, p, family, LinearObjective(cost)


class TestChunkedWalk:
    @pytest.mark.parametrize("stem", ["cube3", "huge3", "permutohedron3", "rational2", "splitting"])
    def test_fixtures_match_definition(self, stem):
        problem = load_problem(DATA / f"{stem}.json")
        objective = problem.objective or ColumnPowerObjective(2)
        a, p, family = problem.matrix, problem.p, problem.family
        vertices, best = reference(a, p, family, objective)
        assert brute_vertices(a, p, family).vertices == vertices
        assert brute_solve(a, p, family, objective) == best

    @pytest.mark.parametrize("seed, k, n, p, family, force", [
        (3, 1, 10, 2, ShapeFamily.all_shapes(10, 2), True),
        (5, 1, 9, 3, ShapeFamily.bounds([1, 2, 0], [4, 5, 4], 9), False),
    ])
    def test_across_chunks_matches_definition(self, seed, k, n, p, family, force):
        assert p ** n * p * n > 2 * _CHUNK_ELEMENTS
        a, p, family, objective = random_problem(seed, k, n, p, family)
        vertices, best = reference(a, p, family, objective)
        assert brute_vertices(a, p, family, force=force).vertices == vertices
        assert brute_solve(a, p, family, objective, force=force) == best
        walked = [pi.blocks for pi in enumerate_all_partitions(n, p, family, force=force)]
        assert walked == [pi.blocks for pi in product_partitions(n, p, family)]

    @pytest.mark.parametrize("n, p", [(0, 1), (0, 3), (1, 1), (6, 1), (4, 3), (7, 3), (10, 2)])
    def test_chunks_are_the_assignments_in_order_and_bounded(self, n, p):
        chunks = list(_assignment_chunks(n, p))
        assert all(len(c) * p * n <= _CHUNK_ELEMENTS for c in chunks)
        walked = [tuple(row) for chunk in chunks for row in chunk.tolist()]
        assert walked == list(product(range(p), repeat=n))

    def test_low_digit_table_is_built_once_and_read_only(self):
        table = _low_digits(3, 4)
        assert table is _low_digits(3, 4) and not table.flags.writeable
        assert table.tolist() == [list(t) for t in product(range(3), repeat=4)]
        # n = 4 elements at p = 3 fit one chunk: two walks read the same table
        walks = [[c.tolist() for c in _assignment_chunks(4, 3)] for _ in range(2)]
        assert walks[0] == walks[1] == [table.tolist()]

    def test_first_partition_past_a_machine_word(self):
        family = ShapeFamily.all_shapes(70, 2)
        first = next(enumerate_all_partitions(70, 2, family, force=True))
        assert first.blocks == (tuple(range(1, 71)), ())

    def test_predicate_asked_once_per_shape(self):
        asked = Counter()

        def predicate(shape):
            asked[shape] += 1
            return shape[0] != 2

        a, p, family, objective = random_problem(
            11, 1, 7, 3, ShapeFamily.from_predicate(predicate, 7, 3)
        )
        for run in (
            lambda: brute_vertices(a, p, family),
            lambda: brute_solve(a, p, family, objective),
            lambda: list(enumerate_all_partitions(7, 3, family)),
        ):
            asked.clear()
            run()
            assert set(asked) == set(compositions(7, 3))
            assert max(asked.values()) == 1

    def test_family_over_another_n_or_p_rejected(self):
        a = Matrix([[1, 2, 3, 4]])
        objective = ColumnPowerObjective(2)
        for family in (ShapeFamily.all_shapes(5, 2), ShapeFamily.all_shapes(4, 3)):
            with pytest.raises(DimensionError, match="does not match"):
                brute_vertices(a, 2, family)
            with pytest.raises(DimensionError, match="does not match"):
                brute_solve(a, 2, family, objective)
            with pytest.raises(DimensionError, match="does not match"):
                list(enumerate_all_partitions(4, 2, family))
        # the guard is checked before the family
        wide = Matrix([list(range(10))])
        other = ShapeFamily.all_shapes(4, 2)
        for run in (
            lambda: brute_vertices(wide, 2, other),
            lambda: brute_solve(wide, 2, other, objective),
            lambda: list(enumerate_all_partitions(10, 2, other)),
            lambda: list(enumerate_all_partitions(4, 5, other)),
        ):
            with pytest.raises(CapacityError):
                run()

    def test_empty_ground_set_and_empty_family(self):
        empty = ShapeFamily.all_shapes(0, 3)
        assert [pi.blocks for pi in enumerate_all_partitions(0, 3, empty)] == [((), (), ())]
        assert brute_vertices(Matrix([[]], ncols=0), 3, empty).vertices == (Matrix([[0, 0, 0]]),)
        nothing = ShapeFamily.from_predicate(lambda shape: False, 4, 2)
        a = Matrix([[1, 2, 3, 4]])
        assert list(enumerate_all_partitions(4, 2, nothing)) == []
        assert brute_vertices(a, 2, nothing).vertices == ()
        with pytest.raises(DimensionError):
            brute_solve(a, 2, nothing, ColumnPowerObjective(2))
