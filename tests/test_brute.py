import json
import random
from fractions import Fraction as F
from math import factorial

import pytest

from shapedparts import cli
from shapedparts.brute import brute_solve, brute_vertices, enumerate_all_partitions
from shapedparts.errors import CapacityError
from shapedparts.linalg import Matrix
from shapedparts.objectives import ColumnPowerObjective, DiagonalPowerObjective, MaxCutObjective
from shapedparts.partitions import ShapeFamily, shape_of


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
            assert count == sum(multinomial(s) for s in family.enumerate())

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
        vertices = brute_vertices(Matrix([[1, 1]]), 2, ShapeFamily.all_shapes(2, 2))
        assert [v.row(0) for v in vertices] == [(F(0), F(2)), (F(2), F(0))]

    def test_input_order_irrelevant(self):
        rng = random.Random(67)
        a = Matrix([[rng.randint(-5, 5) for _ in range(5)] for _ in range(2)])
        family = ShapeFamily.all_shapes(5, 2)
        order = rng.sample(range(5), 5)
        shuffled = Matrix.from_columns([a.column(j) for j in order])
        assert brute_vertices(shuffled, 2, family) == brute_vertices(a, 2, family)


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
