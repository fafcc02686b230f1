"""Acceptance suite.

Each test prints one PASS/FAIL line (run with -s to see them on success) and
enforces the stated runtime budget with exact-result assertions. The random
instances are fully deterministic, so every run checks the same cases.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import permutations
from math import comb

import pytest

from shapedparts import cli
from shapedparts.brute import brute_vertices
from shapedparts.generic import PerturbedMatrix, enumerate_generic_p_partitions
from shapedparts.linalg import Matrix
from shapedparts.partitions import ShapeFamily, compositions, lift
from shapedparts.polytope import candidate_vertices, enumerate_vertices
from shapedparts.problems import problem_from_dict, random_instance_dict

CHECK_SEED = 7
CHECK_INSTANCES = 50


@contextmanager
def criterion(label):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {label}: FAIL ({time.monotonic() - started:.1f}s)")
        raise
    print(f"criterion {label}: PASS ({time.monotonic() - started:.1f}s)")


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def cube_problem(tmp_path, n):
    doc = {
        "matrix": [[1 if i == j else 0 for j in range(n)] for i in range(n)],
        "p": 2,
        "shapes": {"type": "all"},
    }
    return write_json(tmp_path / f"cube{n}.json", doc)


def permutohedron_problem(tmp_path, n):
    doc = {
        "matrix": [list(range(1, n + 1))],
        "p": n,
        "shapes": {"type": "list", "shapes": [[1] * n]},
    }
    return write_json(tmp_path / f"perm{n}.json", doc)


def splitting_problem(tmp_path):
    doc = {
        "matrix": [["3/5", "3/10"], ["2/5", "7/10"]],
        "p": 2,
        "shapes": {"type": "list", "shapes": [[1, 1]]},
        "objective": {"type": "sum_diag_pow", "q": 2},
    }
    return write_json(tmp_path / "splitting.json", doc)


def run_to_file(args, path):
    code = cli.main(args + ["--output", str(path)])
    return code, path.read_text()


def expected_cube_vertices(n):
    matrices = []
    for mask in range(1 << n):
        col1 = [F(1) if mask >> i & 1 else F(0) for i in range(n)]
        matrices.append(Matrix([[col1[i], 1 - col1[i]] for i in range(n)]))
    matrices.sort(key=lambda m: m.flatten())
    return [cli.matrix_payload(m) for m in matrices]


def expected_permutohedron_vertices(n):
    matrices = sorted(
        (Matrix([list(perm)]) for perm in permutations(range(1, n + 1))),
        key=lambda m: m.flatten(),
    )
    return [cli.matrix_payload(m) for m in matrices]


class TestCriterion1Cubes:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cube_vertices(self, n, tmp_path):
        with criterion(f"1 (cube n={n})"):
            started = time.monotonic()
            code, text = run_to_file(
                ["vertices", cube_problem(tmp_path, n)], tmp_path / "out.json"
            )
            elapsed = time.monotonic() - started
            assert code == 0
            report = json.loads(text)
            assert report["counts"]["vertices"] == 2 ** n
            assert [v["matrix"] for v in report["vertices"]] == expected_cube_vertices(n)
            assert elapsed < 10.0


class TestCriterion2Permutohedron:
    def test_n3_mandatory(self, tmp_path):
        with criterion("2 (permutohedron n=3)"):
            started = time.monotonic()
            code, text = run_to_file(
                ["vertices", permutohedron_problem(tmp_path, 3)], tmp_path / "out.json"
            )
            elapsed = time.monotonic() - started
            assert code == 0
            report = json.loads(text)
            assert report["counts"]["vertices"] == 6
            assert [v["matrix"] for v in report["vertices"]] == expected_permutohedron_vertices(3)
            assert elapsed < 10.0

    def test_n4_with_pruning(self, tmp_path):
        with criterion("2 (permutohedron n=4)"):
            started = time.monotonic()
            code, text = run_to_file(
                ["vertices", permutohedron_problem(tmp_path, 4)], tmp_path / "out.json"
            )
            elapsed = time.monotonic() - started
            assert code == 0
            report = json.loads(text)
            assert report["counts"]["vertices"] == 24
            assert [v["matrix"] for v in report["vertices"]] == expected_permutohedron_vertices(4)
            assert elapsed < 600.0


class TestCriterion3OracleEquivalence:
    def test_fifty_seeded_instances(self, tmp_path):
        with criterion("3 (oracle equivalence, 50 instances)"):
            started = time.monotonic()
            code, text = run_to_file(
                ["check", "--random", str(CHECK_INSTANCES), "--seed", str(CHECK_SEED)],
                tmp_path / "check.json",
            )
            elapsed = time.monotonic() - started
            assert code == 0
            report = json.loads(text)
            assert report["instances"] == CHECK_INSTANCES
            assert report["status"] == "ok"
            for result in report["results"]:
                assert result["vertices_match"]
                if "optimum_match" in result:
                    assert result["optimum_match"]
            assert elapsed < 600.0


class TestCriterion4CountingBounds:
    def test_bounds_on_check_instances(self):
        with criterion("4 (counting bounds)"):
            for index in range(CHECK_INSTANCES):
                problem = problem_from_dict(random_instance_dict(CHECK_SEED, index))
                k, n, p = problem.k, problem.n, problem.p
                report = enumerate_vertices(problem.matrix, p, problem.family)
                two = report.candidates.two_partition_count
                if n > k + 1:
                    assert two <= 2 ** (k + 2) * comb(n, k + 1)
                else:
                    assert two == 2 ** n
                assert report.candidates.generic_count <= two ** comb(p, 2)
                assert report.vertex_count <= report.candidates.generic_count


class TestCriterion5Splitting:
    def test_exact_value(self, tmp_path):
        with criterion("5 (splitting)"):
            started = time.monotonic()
            code, text = run_to_file(
                ["solve", splitting_problem(tmp_path)], tmp_path / "out.json"
            )
            elapsed = time.monotonic() - started
            assert code == 0
            report = json.loads(text)
            assert report["best_value"] == "17/20"
            assert elapsed < 1.0


class TestCriterion6Invariance:
    def test_twenty_seeded_instances(self):
        with criterion("6 (invariance suite)"):
            started = time.monotonic()
            rng = random.Random(606)
            for _ in range(20):
                k = rng.randint(1, 2)
                n = rng.randint(2, 6)
                p = rng.randint(2, 3)
                a = Matrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)])
                family = ShapeFamily.all_shapes(n, p)

                base_vertices = {m.flatten() for m in enumerate_vertices(a, p, family).vertices}
                order = rng.sample(range(n), n)
                permuted = Matrix.from_columns([a.column(j) for j in order])
                assert {
                    m.flatten() for m in enumerate_vertices(permuted, p, family).vertices
                } == base_vertices

                base_generic = {
                    pi.blocks
                    for pi in enumerate_generic_p_partitions(PerturbedMatrix(lift(a)), p)
                }
                shift = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)]
                translated = Matrix(
                    [[a.entry(r, c) + shift[r] for c in range(n)] for r in range(k)]
                )
                assert {
                    pi.blocks
                    for pi in enumerate_generic_p_partitions(PerturbedMatrix(lift(translated)), p)
                } == base_generic
                scale = F(rng.randint(1, 6), rng.randint(1, 3))
                scaled = Matrix([[scale * x for x in a.row(r)] for r in range(k)])
                assert {
                    pi.blocks
                    for pi in enumerate_generic_p_partitions(PerturbedMatrix(lift(scaled)), p)
                } == base_generic

                shape = rng.choice(list(compositions(n, p)))
                single = ShapeFamily.explicit([shape], n, p)
                vector = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k)]
                moved = Matrix(
                    [[a.entry(r, c) + vector[r] for c in range(n)] for r in range(k)]
                )
                before = enumerate_vertices(a, p, single)
                after = enumerate_vertices(moved, p, single)
                expected = {
                    Matrix(
                        [
                            [m.entry(r, j) + shape[j] * vector[r] for j in range(p)]
                            for r in range(k)
                        ]
                    ).flatten()
                    for m in before.vertices
                }
                assert {m.flatten() for m in after.vertices} == expected
            assert time.monotonic() - started < 120.0


class TestCriterion7Superset:
    def test_brute_vertices_among_candidates(self):
        with criterion("7 (candidate superset)"):
            for index in range(CHECK_INSTANCES):
                problem = problem_from_dict(random_instance_dict(CHECK_SEED, index))
                candidates = candidate_vertices(problem.matrix, problem.p, problem.family)
                member_keys = {m.flatten() for m in candidates.members}
                for matrix in brute_vertices(problem.matrix, problem.p, problem.family).vertices:
                    assert matrix.flatten() in member_keys


class TestCriterion8Determinism:
    def test_byte_identical_outputs(self, tmp_path):
        with criterion("8 (determinism)"):
            commands = [
                ["vertices", cube_problem(tmp_path, 2)],
                ["vertices", cube_problem(tmp_path, 3)],
                ["vertices", cube_problem(tmp_path, 4)],
                ["vertices", permutohedron_problem(tmp_path, 3)],
                ["vertices", permutohedron_problem(tmp_path, 4)],
                ["check", "--random", str(CHECK_INSTANCES), "--seed", str(CHECK_SEED)],
                ["solve", splitting_problem(tmp_path)],
            ]
            for number, command in enumerate(commands):
                outputs = []
                for run in range(3):
                    target = tmp_path / f"det{number}_{run}.json"
                    code = cli.main(command + ["--output", str(target)])
                    assert code == 0
                    outputs.append(target.read_bytes())
                assert outputs[0] == outputs[1] == outputs[2]


class TestPolynomialGrowthSanity:
    def test_two_partition_growth_when_doubling_n(self):
        rng = random.Random(909)
        for n in (6,):
            small = Matrix([[rng.randint(-5, 5) for _ in range(n)]])
            large = Matrix([[rng.randint(-5, 5) for _ in range(2 * n)]])
            count_small = len(
                enumerate_generic_p_partitions(PerturbedMatrix(lift(small)), 2)
            )
            count_large = len(
                enumerate_generic_p_partitions(PerturbedMatrix(lift(large)), 2)
            )
            # k = 1: the bound 2^(k+2) * C(n, k+1) grows ~4x when n doubles.
            assert count_large <= 2 ** 3 * comb(2 * n, 2)
            assert count_large <= 5 * count_small
