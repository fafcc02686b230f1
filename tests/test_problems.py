import json
from fractions import Fraction as F

import numpy as np
import pytest

from shapedparts.errors import ProblemError
from shapedparts.objectives import (
    ColumnPowerObjective,
    DiagonalPowerObjective,
    ExternalOracle,
    LinearObjective,
    MaxCutObjective,
)
from shapedparts.partitions import ShapeFamily
from shapedparts.problems import load_problem, problem_from_dict, random_instance_dict


def base_doc():
    return {"matrix": [[1, 2, 3]], "p": 2, "shapes": {"type": "all"}}


class TestParsing:
    def test_minimal(self):
        problem = problem_from_dict(base_doc())
        assert problem.k == 1 and problem.n == 3 and problem.p == 2
        assert problem.objective is None

    def test_decimal_strings_exact(self):
        doc = base_doc()
        doc["matrix"] = [["0.6", "0.3", "1/3"]]
        problem = problem_from_dict(doc)
        assert problem.matrix.row(0) == (F(3, 5), F(3, 10), F(1, 3))

    def test_json_float_preserved(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"matrix": [[0.6]], "p": 1, "shapes": {"type": "all"}}')
        problem = load_problem(str(path))
        assert problem.matrix.entry(0, 0) == F(3, 5)

    def test_missing_keys(self):
        for key in ("matrix", "p", "shapes"):
            doc = base_doc()
            del doc[key]
            with pytest.raises(ProblemError):
                problem_from_dict(doc)

    def test_bad_p(self):
        for bad in (0, -1, "2", True, 1.5):
            doc = base_doc()
            doc["p"] = bad
            with pytest.raises(ProblemError):
                problem_from_dict(doc)

    def test_shape_kinds(self):
        doc = base_doc()
        doc["shapes"] = {"type": "list", "shapes": [[2, 1], [3, 0]]}
        assert problem_from_dict(doc).family.contains((2, 1))
        doc["shapes"] = {"type": "bounds", "lower": [1, 1], "upper": [2, 2]}
        assert not problem_from_dict(doc).family.contains((3, 0))

    def test_library_takes_numpy_integers(self):
        two, one = np.int64(2), np.int64(1)
        assert ShapeFamily.explicit([(two, one)], 3, 2).contains((2, 1))
        assert not ShapeFamily.bounds([one, one], [two, two], 3).contains((3, 0))
        assert MaxCutObjective([(one, two)]).edges == ((1, 2),)
        assert ColumnPowerObjective(two).q == 2 and DiagonalPowerObjective(one).q == 1

    def test_invalid_shapes(self):
        doc = base_doc()
        doc["shapes"] = {"type": "list", "shapes": [[2, 2]]}
        with pytest.raises(ProblemError):
            problem_from_dict(doc)
        doc["shapes"] = {"type": "bounds", "lower": [1], "upper": [2]}
        with pytest.raises(ProblemError):
            problem_from_dict(doc)
        doc["shapes"] = {"type": "mystery"}
        with pytest.raises(ProblemError):
            problem_from_dict(doc)
        # a boolean or a string is not a size, though int() would read it as one
        for shapes in ({"type": "list", "shapes": [[True, 2], [2, True]]},
                       {"type": "list", "shapes": [["1", 2]]},
                       {"type": "bounds", "lower": [False, False], "upper": [3, 3]}):
            doc["shapes"] = shapes
            with pytest.raises(ProblemError, match="not an integer"):
                problem_from_dict(doc)

    def test_objective_kinds(self):
        doc = base_doc()
        doc["objective"] = {"type": "linear", "cost": [[1, 0]]}
        assert isinstance(problem_from_dict(doc).objective, LinearObjective)
        doc["objective"] = {"type": "sum_column_norm_pow", "q": 2}
        assert isinstance(problem_from_dict(doc).objective, ColumnPowerObjective)
        doc["objective"] = {"type": "external", "cmd": ["prog"]}
        assert isinstance(problem_from_dict(doc).objective, ExternalOracle)

        square = {
            "matrix": [[1, 2], [3, 4]], "p": 2, "shapes": {"type": "all"},
            "objective": {"type": "sum_diag_pow", "q": 2},
        }
        assert isinstance(problem_from_dict(square).objective, DiagonalPowerObjective)

        cut = {
            "matrix": [[1, 0], [0, 1]], "p": 2, "shapes": {"type": "all"},
            "objective": {"type": "max_cut", "edges": [[1, 2]]},
        }
        assert isinstance(problem_from_dict(cut).objective, MaxCutObjective)

    def test_incompatible_objective(self):
        doc = base_doc()
        doc["objective"] = {"type": "linear", "cost": [[1, 0, 0]]}
        with pytest.raises(ProblemError):
            problem_from_dict(doc)
        doc["objective"] = {"type": "sum_diag_pow", "q": 2}
        with pytest.raises(ProblemError):
            problem_from_dict(doc)
        doc["objective"] = {"type": "max_cut", "edges": [[1, 2]]}
        with pytest.raises(ProblemError):
            problem_from_dict(doc)
        # checked once, by the objective's check_compatible
        doc["objective"] = {"type": "linear", "cost": [[1, 0], [0, 1]]}
        with pytest.raises(ProblemError, match="^objective incompatible with instance: "):
            problem_from_dict(doc)

    @pytest.mark.parametrize("objective", [
        {"type": "sum_diag_pow", "q": True},
        {"type": "sum_column_norm_pow", "q": "2"},
        {"type": "max_cut", "edges": [[True, 2]]},
        {"type": "max_cut", "edges": [[1, "2"]]},
        {"type": "external", "cmd": ["python3", True]},
        {"type": "external", "cmd": ["python3", ["x"]]},
    ])
    def test_objective_entries_must_be_integers_or_strings(self, objective):
        doc = {"matrix": [[1, 0], [0, 1]], "p": 2, "shapes": {"type": "all"}, "objective": objective}
        with pytest.raises(ProblemError, match="not an integer|array of strings|integer q"):
            problem_from_dict(doc)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ProblemError):
            load_problem(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ProblemError):
            load_problem(str(bad))


class TestGenerator:
    def test_deterministic(self):
        assert random_instance_dict(11, 4) == random_instance_dict(11, 4)

    def test_all_instances_valid_and_bounded(self):
        kinds = set()
        for index in range(30):
            doc = random_instance_dict(3, index)
            json.dumps(doc)
            problem = problem_from_dict(doc)
            kinds.add(doc["shapes"]["type"])
            assert problem.k <= 2 and problem.n <= 7 and problem.p <= 3
            assert all(abs(x) <= 5 for x in problem.matrix.flatten())
            assert problem.objective is not None
        assert kinds == {"all", "list", "bounds"}
