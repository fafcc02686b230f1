import json
import resource
import subprocess
import sys
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest

from shapedparts import cli
from shapedparts.brute import BruteVertices
from shapedparts.partitions import PartSums

DATA = Path(__file__).parent / "data"


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestVertices:
    def test_cube_report(self, capsys):
        code, out, _ = run_cli(["vertices", str(DATA / "cube3.json")], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["counts"]["vertices"] == 8
        assert len(report["vertices"]) == 8
        assert all(set(r) <= {"0", "1"} for v in report["vertices"] for r in v["matrix"])

    def test_with_partitions(self, capsys):
        code, out, _ = run_cli(
            ["vertices", str(DATA / "permutohedron3.json"), "--with-partitions"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["counts"]["vertices"] == 6
        for vertex in report["vertices"]:
            assert len(vertex["partitions"]) == 1
            assert sorted(len(b) for b in vertex["partitions"][0]) == [1, 1, 1]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["vertices", str(DATA / "permutohedron3.json"), "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert sorted(lines) == lines
        assert lines[0] == "1,2,3"

    def test_csv_with_partitions_exit_2(self, tmp_path, capsys):
        path = write_problem(tmp_path, {"matrix": [[1, 2, 3]], "p": 2, "shapes": {"type": "all"}})
        code, out, err = run_cli(["vertices", path, "--format", "csv", "--with-partitions"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "--with-partitions" in err

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["vertices", str(DATA / "cube3.json"), "--output", str(target)], capsys
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["counts"]["vertices"] == 8

    def test_malformed_shapes_exit_2(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            {"matrix": [[1, 2, 3]], "p": 2, "shapes": {"type": "list", "shapes": [[1, 1]]}},
        )
        code, _, err = run_cli(["vertices", path], capsys)
        assert code == 2
        assert "error" in err

    def test_capacity_exit_3(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, {"matrix": [[1, 2, 3, 4]], "p": 2, "shapes": {"type": "all"}}
        )
        code, _, err = run_cli(["vertices", path, "--max-candidates", "2"], capsys)
        assert code == 3
        assert "capacity" in err


class TestSolve:
    def test_splitting_value(self, capsys):
        code, out, _ = run_cli(["solve", str(DATA / "splitting.json")], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["best_value"] == "17/20"
        assert report["best_partition"] == [[1], [2]]
        assert report["evaluations"] == 2

    def test_linear_objective(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            {
                "matrix": [[1, 2, 3]], "p": 2, "shapes": {"type": "all"},
                "objective": {"type": "linear", "cost": [[1, 0]]},
            },
        )
        code, out, _ = run_cli(["solve", path], capsys)
        assert code == 0
        assert json.loads(out)["best_value"] == "6"

    def test_missing_objective_exit_2(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, {"matrix": [[1, 2]], "p": 2, "shapes": {"type": "all"}}
        )
        code, _, err = run_cli(["solve", path], capsys)
        assert code == 2

    def test_external_oracle_failure_exit_4(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            {
                "matrix": [[1, 2]], "p": 2, "shapes": {"type": "all"},
                "objective": {"type": "external", "cmd": ["/bin/false"]},
            },
        )
        code, _, err = run_cli(["solve", path], capsys)
        assert code == 4

    @pytest.mark.parametrize("cmd", [["a\u0000b"], ["\ud800"]],
                             ids=["embedded-null-byte", "lone-surrogate"])
    def test_oracle_command_that_cannot_be_passed_exit_4(self, tmp_path, capsys, cmd):
        # Popen rejects these arguments with ValueError (UnicodeEncodeError
        # for the surrogate) before any process starts.
        path = write_problem(
            tmp_path,
            {
                "matrix": [[1, 2]], "p": 2, "shapes": {"type": "all"},
                "objective": {"type": "external", "cmd": cmd},
            },
        )
        for command in ("solve", "check"):
            code, out, err = run_cli([command, path], capsys)
            assert code == 4 and out == "", err
            assert err.startswith("error: cannot start oracle ") and err.count("\n") == 1

    def test_oracle_that_exits_after_one_reply_always_exit_4(self, tmp_path, capsys):
        # The oracle answers one query and exits; whether that exit is seen
        # before the next query must not change the outcome.
        path = write_problem(
            tmp_path,
            {
                "matrix": [[1, 2, 3, 4]], "p": 2, "shapes": {"type": "all"},
                "objective": {"type": "external", "cmd": ["sh", "-c", "read x; echo 1"]},
            },
        )
        for _ in range(6):
            code, out, err = run_cli(["solve", path], capsys)
            assert code == 4, out
            assert "oracle" in err

    def test_oracle_that_exits_after_its_only_reply_always_exit_0(self, tmp_path, capsys):
        # Every part-sum matrix is the zero matrix: one query, then every
        # evaluation is answered from the record, whenever the oracle exits.
        path = write_problem(
            tmp_path,
            {
                "matrix": [[0, 0, 0, 0]], "p": 2, "shapes": {"type": "all"},
                "objective": {"type": "external", "cmd": ["sh", "-c", "read x; echo 1"]},
            },
        )
        for _ in range(6):
            code, out, err = run_cli(["solve", path], capsys)
            assert code == 0, err
            assert json.loads(out)["best_value"] == "1"

    def test_oracle_reply_with_huge_exponent_exit_4(self, tmp_path):
        replier = "import sys\nfor line in sys.stdin:\n    print('1e999999999999', flush=True)\n"
        path = write_problem(
            tmp_path,
            {
                "matrix": [[1, 2]], "p": 2, "shapes": {"type": "all"},
                "objective": {"type": "external", "cmd": [sys.executable, "-c", replier]},
            },
        )
        result = subprocess.run(
            [sys.executable, "-m", "shapedparts.cli", "solve", path],
            capture_output=True, text=True, timeout=30,
        )
        assert result.returncode == 4
        assert "garbage" in result.stderr

    def test_oracle_stderr_lines_join_in_one_error_line(self, tmp_path):
        path = write_problem(
            tmp_path,
            {
                "matrix": [[1, 2, 3]], "p": 2, "shapes": {"type": "all"},
                "objective": {"type": "external", "cmd": [
                    "sh", "-c", "read x; echo first >&2; echo second >&2; exit 1"]},
            },
        )
        result = subprocess.run(
            [sys.executable, "-m", "shapedparts.cli", "solve", path],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 4 and result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "stderr: first second" in result.stderr

    def test_oracle_query_beyond_digit_limit_exit_2(self, tmp_path):
        replier = "import sys\nfor line in sys.stdin:\n    print(1, flush=True)\n"
        path = write_problem(
            tmp_path,
            {
                "matrix": [["1e4300", 1]], "p": 2, "shapes": {"type": "all"},
                "objective": {"type": "external", "cmd": [sys.executable, "-c", replier]},
            },
        )
        result = subprocess.run(
            [sys.executable, "-m", "shapedparts.cli", "solve", path],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "digits" in result.stderr


class TestInputErrors:
    def test_huge_exponent_entry_exit_2(self, tmp_path):
        path = write_problem(
            tmp_path, {"matrix": [["1e10000000", 1]], "p": 2, "shapes": {"type": "all"}}
        )
        result = subprocess.run(
            [sys.executable, "-m", "shapedparts.cli", "count", path],
            capture_output=True, text=True, timeout=30,
        )
        assert result.returncode == 2
        assert "exponent" in result.stderr

    def test_long_integer_literal_exit_2(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text('{"matrix": [[' + "7" * 5000 + ', 1]], "p": 2, "shapes": {"type": "all"}}')
        code, _, err = run_cli(["count", str(path)], capsys)
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("command", ["vertices", "solve", "count", "check"])
    def test_deeply_nested_json_exit_2(self, tmp_path, capsys, command):
        # nesting past the JSON decoder's depth limit raises RecursionError
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        code, out, err = run_cli([command, str(path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path} is not valid JSON: ") and err.count("\n") == 1

    def test_vertex_entry_beyond_digit_limit_exit_2(self, tmp_path, capsys):
        path = write_problem(tmp_path, {"matrix": [["1e4300", 1]], "p": 2, "shapes": {"type": "all"}})
        code, out, err = run_cli(["vertices", path], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "digits" in err

    def test_optimum_beyond_digit_limit_exit_2(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            {
                "matrix": [["1e1100", 2, 3]], "p": 2, "shapes": {"type": "all"},
                "objective": {"type": "sum_column_norm_pow", "q": 4},
            },
        )
        code, out, err = run_cli(["solve", path], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "digits" in err

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_output_exit_2(self, tmp_path, capsys, where):
        target = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
        code, out, err = run_cli(["count", str(DATA / "cube3.json"), "--output", str(target)],
                                 capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--max-two-partitions", "--max-candidates", "--max-assembly-nodes"])
    def test_negative_limit_exit_2(self, tmp_path, capsys, flag):
        path = write_problem(tmp_path, {"matrix": [[1, 2, 3]], "p": 2, "shapes": {"type": "all"}})
        code, _, err = run_cli(["count", path, flag, "-1"], capsys)
        assert code == 2
        assert "nonnegative" in err


    @pytest.mark.parametrize("shapes, objective", [
        ({"type": "list", "shapes": [["a", 3]]}, None),
        ({"type": "bounds", "lower": [0, 1.5], "upper": [3, 3]}, None),  # a JSON float
        ({"type": "all"}, {"type": "max_cut", "edges": [[1, 2, 3]]}),
        ({"type": "list", "shapes": [[True, 2], [2, True]]}, None),
        ({"type": "bounds", "lower": [False, False], "upper": [3, 3]}, None),
        ({"type": "all"}, {"type": "sum_diag_pow", "q": True}),
        ({"type": "all"}, {"type": "max_cut", "edges": [[True, 2]]}),
        ({"type": "all"}, {"type": "max_cut", "edges": [[1, "2"]]}),
        ({"type": "all"}, {"type": "external", "cmd": ["python3", True]}),
    ], ids=["shape-entry", "bound-entry", "edge-arity", "boolean-shape", "boolean-bound",
            "boolean-power", "boolean-edge", "string-edge", "boolean-command"])
    def test_malformed_shape_or_edge_entry_exit_2(self, tmp_path, capsys, shapes, objective):
        matrix = [[1, 2, 3]] if objective is None else [[1, 0], [0, 1]]
        doc = {"matrix": matrix, "p": 2, "shapes": shapes}
        if objective is not None:
            doc["objective"] = objective
        command = "count" if objective is None else "solve"
        code, out, err = run_cli([command, write_problem(tmp_path, doc)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "internal error" not in err


DIGIT_LIMIT_ERROR = "error: a reported value has more than 4300 digits, the integer-string limit\n"
POWER_ROW = [3, -1, 4, 1, -5]


def power_problem(q, matrix=None, kind="sum_column_norm_pow"):
    return {"matrix": matrix or [POWER_ROW], "p": 3, "shapes": {"type": "all"},
            "objective": {"type": kind, "q": q}}


def largest_power_sum(q):
    """The optimum of sum_column_norm_pow on POWER_ROW at p = 3, by its definition."""
    return max(sum(sum(x for x, label in zip(POWER_ROW, labels) if label == j) ** q
                   for j in range(3))
               for labels in product(range(3), repeat=len(POWER_ROW)))


def run_cli_guarded(args):
    """The CLI in a fresh interpreter, under a 10 s CPU limit, a 1 GiB
    address-space limit and a 60 s timeout: returns the completed process
    and the CPU seconds it used."""
    def limit():
        resource.setrlimit(resource.RLIMIT_CPU, (10, 10))
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = subprocess.run([sys.executable, "-m", "shapedparts.cli", *args],
                            capture_output=True, text=True, timeout=60, preexec_fn=limit)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return result, (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)


class TestPowerDigitLimit:
    """A power objective whose optimum is certain to pass the digit limit
    exits 2 before taking any power; otherwise it computes as the definition."""

    @pytest.mark.parametrize("doc", [
        power_problem(10 ** 11),
        # the diagonal of a square part-sum matrix
        power_problem(10 ** 11, [[3, -1, 4], [1, -5, 2], [0, 2, 1]], "sum_diag_pow"),
        # every value is below 1, so the reduced denominator is past the limit
        power_problem(10 ** 11, [["1/7", "2/7", "-3/7"]]),
        # every value is 1 + 2^-q, in lowest terms over 2^q
        power_problem(10 ** 11, [[1, 0], [0, "1/2"]]),
    ], ids=["column", "diagonal", "denominator", "near-one"])
    def test_unbounded_power_exits_early(self, tmp_path, doc):
        result, cpu = run_cli_guarded(["solve", write_problem(tmp_path, doc)])
        assert (result.returncode, result.stdout, result.stderr) == (2, "", DIGIT_LIMIT_ERROR)
        assert cpu < 1.0

    @pytest.mark.parametrize("command", ["solve", "check"])
    def test_just_below_and_above_the_limit(self, tmp_path, capsys, command):
        # The optimum has 4299 digits at q = 4760 and 4301 at q = 4762.
        below, above = largest_power_sum(4760), largest_power_sum(4762)
        assert below < 10 ** 4300 <= above
        code, out, err = run_cli([command, write_problem(tmp_path, power_problem(4760))], capsys)
        report = json.loads(out)
        value = report["best_value"] if command == "solve" else report["results"][0]["optimum"]
        assert (code, err, int(value)) == (0, "", below)
        code, out, err = run_cli([command, write_problem(tmp_path, power_problem(4762))], capsys)
        assert (code, out, err) == (2, "", DIGIT_LIMIT_ERROR)

    def test_denominator_just_below_and_above_the_limit(self, tmp_path, capsys):
        # Every value is 1 + 2^-q; 2^14284 has 4300 digits and 2^14286 has 4301.
        near_one = [[1, 0], [0, "1/2"]]
        code, out, err = run_cli(["solve", write_problem(tmp_path, power_problem(14284, near_one))],
                                 capsys)
        assert (code, err) == (0, "")
        assert F(json.loads(out)["best_value"]) == 1 + F(1, 2 ** 14284)
        code, out, err = run_cli(["solve", write_problem(tmp_path, power_problem(14286, near_one))],
                                 capsys)
        assert (code, out, err) == (2, "", DIGIT_LIMIT_ERROR)

    def test_no_digit_limit_computes_as_before(self, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code, out, _ = run_cli(["solve", write_problem(tmp_path, power_problem(20000))],
                                   capsys)
            assert code == 0 and int(json.loads(out)["best_value"]) == largest_power_sum(20000)
        finally:
            sys.set_int_max_str_digits(limit)


class TestLimitFlags:
    GUARDS = ("two-partitions", "candidates", "assembly-nodes")

    @pytest.mark.parametrize("command, flag, value, guard", [
        pytest.param("count", "--max-two-partitions", "13", "two-partitions",
                     id="--max-two-partitions-13-two-partitions"),
        pytest.param("count", "--max-candidates", "3", "candidates",
                     id="--max-candidates-3-candidates"),
        pytest.param("count", "--max-assembly-nodes", "5", "assembly-nodes",
                     id="--max-assembly-nodes-5-assembly-nodes"),
        pytest.param("solve", "--max-candidates", "3", "candidates",
                     id="solve---max-candidates-3-candidates"),
    ])
    def test_each_flag_trips_its_own_guard(self, tmp_path, capsys, command, flag, value, guard):
        # 14 two-partitions, 60 candidates
        path = write_problem(tmp_path, {"matrix": [[1, 2, 3, 4]], "p": 3, "shapes": {"type": "all"},
                                        "objective": {"type": "linear", "cost": [[1, 0, -1]]}})
        code, _, err = run_cli([command, path, flag, value], capsys)
        assert code == 3
        assert f"'{guard}'" in err
        assert all(f"'{other}'" not in err for other in self.GUARDS if other != guard)

    @pytest.mark.parametrize("flag, value, message", [
        ("--max-two-partitions", "13",
         "capacity guard 'two-partitions' exceeded (limit 13; reached d-subset 4 of 6)"),
        ("--max-candidates", "3", "capacity guard 'candidates' exceeded (limit 3, needed 60)"),
    ])
    def test_guard_says_how_far_the_run_got(self, tmp_path, capsys, flag, value, message):
        path = write_problem(tmp_path, {"matrix": [[1, 2, 3, 4]], "p": 3, "shapes": {"type": "all"}})
        code, _, err = run_cli(["count", path, flag, value], capsys)
        assert code == 3
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["count", "vertices", "solve", "check"])
    @pytest.mark.parametrize("p", [2 ** 62, 2 ** 70], ids=["2^62", "2^70"])
    def test_huge_p_trips_the_assembly_guard(self, tmp_path, capsys, command, p):
        # element 1 alone would test p (p - 1) mask words, more than the
        # limit; with no elements, the one partition's p blocks are charged
        for matrix, detail in [([[1, 2, 3]], "; reached element 1 of 3"), ([[]], f", needed {p}")]:
            path = write_problem(tmp_path, {"matrix": matrix, "p": p, "shapes": {"type": "all"},
                                            "objective": {"type": "sum_column_norm_pow", "q": 2}})
            code, out, err = run_cli([command, path], capsys)
            assert code == 3 and out == ""
            assert err == f"error: capacity guard 'assembly-nodes' exceeded (limit 5000000{detail})\n"


class TestCount:
    def test_huge_entry_writes_no_warnings(self, tmp_path):
        path = write_problem(tmp_path, {"matrix": [["1e400", 2, 3]], "p": 3, "shapes": {"type": "all"}})
        result = subprocess.run(
            [sys.executable, "-m", "shapedparts.cli", "count", path],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0
        assert result.stderr == ""
        assert json.loads(result.stdout)["counts"] == {
            "two_partitions": 8,
            "generic_partitions": 27,
            "admissible_partitions": 27,
            "candidates": 27,
            "vertices": 3,
        }

    def test_float_route_writes_no_warnings(self, tmp_path):
        # A dimension >= 3 hull whose membership batches are large enough for
        # the float simplex, on entries past float range.
        path = write_problem(tmp_path, {
            "matrix": [["1e400", "-1e400", 3, "1e400"], [1, 2, "-3e400", 2]],
            "p": 3, "shapes": {"type": "all"},
        })
        result = subprocess.run(
            [sys.executable, "-m", "shapedparts.cli", "count", path],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0
        assert result.stderr == ""
        assert json.loads(result.stdout)["counts"] == {
            "two_partitions": 16,
            "generic_partitions": 81,
            "admissible_partitions": 81,
            "candidates": 81,
            "vertices": 48,
        }

    def test_float_degenerate_counts(self, tmp_path, capsys):
        # Entries that differ by far less than float resolution: the float
        # simplex certifies almost nothing, so the integer simplex decides.
        doc = {
            "matrix": [
                [-2, "-1902866558439589/9007199254740992", -1, 2, -1],
                ["508697/1710201182783748864", "1/2305843009213693952",
                 "1/2305843009213693952", 2, 0],
            ],
            "p": 3, "shapes": {"type": "all"},
        }
        code, out, _ = run_cli(["count", write_problem(tmp_path, doc)], capsys)
        assert code == 0
        assert json.loads(out)["counts"] == {
            "two_partitions": 30,
            "generic_partitions": 237,
            "admissible_partitions": 237,
            "candidates": 237,
            "vertices": 63,
        }

    def test_cube_counts(self, capsys):
        code, out, _ = run_cli(["count", str(DATA / "cube3.json")], capsys)
        assert code == 0
        counts = json.loads(out)["counts"]
        assert counts == {
            "two_partitions": 8,
            "generic_partitions": 8,
            "admissible_partitions": 8,
            "candidates": 8,
            "vertices": 8,
        }

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_two_partitions_counted_at_every_p(self, tmp_path, capsys, p):
        # The 2-partitions of the lifted configuration do not depend on p,
        # and p = 1 reports them although it assembles none.
        path = write_problem(
            tmp_path, {"matrix": [[3, -1, 4, 1, -5]], "p": p, "shapes": {"type": "all"}}
        )
        code, out, _ = run_cli(["count", path], capsys)
        assert code == 0
        assert json.loads(out)["counts"]["two_partitions"] == 22

    def test_single_shape_point(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            {"matrix": [[1, 2, 3]], "p": 2, "shapes": {"type": "list", "shapes": [[3, 0]]}},
        )
        code, out, _ = run_cli(["count", path], capsys)
        assert code == 0
        assert json.loads(out)["counts"]["vertices"] == 1

    def test_permutohedron_counts(self, capsys):
        code, out, _ = run_cli(["count", str(DATA / "permutohedron3.json")], capsys)
        assert json.loads(out)["counts"]["vertices"] == 6


class TestCheck:
    def test_cube_matches(self, capsys):
        code, out, _ = run_cli(["check", str(DATA / "cube3.json")], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "ok"
        assert report["results"][0]["vertices_match"]
        assert report["results"][0]["candidates_cover_brute"]

    def test_random_batch(self, capsys):
        code, out, _ = run_cli(["check", "--random", "6", "--seed", "5"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["instances"] == 6
        assert report["status"] == "ok"

    def test_oversize_requires_force(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            {"matrix": [[i for i in range(1, 11)]], "p": 2, "shapes": {"type": "all"}},
        )
        code, _, err = run_cli(["check", path], capsys)
        assert code == 3

    def test_needs_exactly_one_source(self, capsys):
        code, _, err = run_cli(["check"], capsys)
        assert code == 2
        code, _, err = run_cli(["check", str(DATA / "cube3.json"), "--random", "2"], capsys)
        assert code == 2

    @staticmethod
    def fake_brute_vertices(brute):
        """A brute_vertices that reports the matrix `brute` (rows of rational
        strings) as its one vertex, keyed as PartSums(a, p) keys it: an entry
        off the 1/scale grid stays a Fraction and equals no integer key."""

        def fake(a, p, family, force=False):
            sums = PartSums(a, p)
            key = tuple(F(x) * sums.scale for row in brute for x in row)
            return BruteVertices([key], sums)

        return fake

    def test_mismatch_exit_5(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "brute_vertices", self.fake_brute_vertices([[0, 0]] * 3))
        code, out, _ = run_cli(["check", str(DATA / "cube3.json")], capsys)
        assert code == 5
        report = json.loads(out)
        assert report["status"] == "mismatch"
        assert report["results"][0]["missing_from_fast"]
        assert report["results"][0]["extra_in_fast"]

    @pytest.mark.parametrize("name, brute", [
        # times the scale 10 an entry is 1/2, which equals no integer key
        ("splitting.json", [["1/20", "0"], ["0", "0"]]),
        # an integer tuple, but no candidate key
        ("splitting.json", [["0", "0"], ["0", "0"]]),
        # at scale 1, flooring 1/2 to 0 would alias the candidate [[0, 1], [0, 1], [1, 0]]
        ("cube3.json", [["1/2", "1"], ["0", "1"], ["1", "0"]]),
    ], ids=["brute0", "brute1", "brute2"])
    def test_brute_vertex_outside_candidates_exit_5(self, capsys, monkeypatch, name, brute):
        monkeypatch.setattr(cli, "brute_vertices", self.fake_brute_vertices(brute))
        code, out, _ = run_cli(["check", str(DATA / name)], capsys)
        assert code == 5
        result = json.loads(out)["results"][0]
        assert result["candidates_cover_brute"] is False
        assert result["missing_from_fast"] == [brute]


class TestDeterminism:
    def test_byte_identical_runs(self, tmp_path, capsys):
        outputs = []
        for run in range(3):
            target = tmp_path / f"out{run}.json"
            code, _, _ = run_cli(
                ["vertices", str(DATA / "cube3.json"), "--output", str(target)], capsys
            )
            assert code == 0
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


class TestConsoleEntry:
    def test_threads_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as caught:
            cli.main(["count", str(DATA / "cube3.json"), "--threads", "1"])
        assert caught.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_consecutive_calls_share_no_state(self, tmp_path, capsys):
        assert cli._build_parser() is cli._build_parser()
        path = write_problem(tmp_path, {"matrix": [[1, 2, 3, 4]], "p": 3, "shapes": {"type": "all"}})
        code, _, err = run_cli(["count", path, "--max-candidates", "3"], capsys)
        assert code == 3 and "'candidates'" in err
        code, out, _ = run_cli(["count", path], capsys)
        assert code == 0
        assert json.loads(out)["counts"]["candidates"] == 60
        with pytest.raises(SystemExit) as caught:
            cli.main(["count", path, "--bogus"])
        assert caught.value.code == 2
        assert "--bogus" in capsys.readouterr().err
        code, out, _ = run_cli(["count", path], capsys)
        assert code == 0 and json.loads(out)["counts"]["vertices"] == 3

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "shapedparts.cli", "count", str(DATA / "cube3.json")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["counts"]["vertices"] == 8

    def test_unexpected_exception_exit_6(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr(cli, "_cmd_count", broken)
        code, out, err = run_cli(["count", str(DATA / "cube3.json")], capsys)
        assert code == 6 and out == ""
        assert err == "error: internal error: RuntimeError: boom second line\n"

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
    def test_interrupt_and_exit_pass_through(self, monkeypatch, exc):
        def interrupted(args):
            raise exc()

        monkeypatch.setattr(cli, "_cmd_count", interrupted)
        with pytest.raises(exc):
            cli.main(["count", str(DATA / "cube3.json")])

    def test_usage_error_exit_2(self):
        # An unknown command, no command, a flag that is no integer and a
        # missing problem argument each print one "error:" line, without usage.
        for argv in (["frobnicate"], [], ["count", "--max-candidates", "x", "P.json"], ["count"]):
            result = subprocess.run(
                [sys.executable, "-m", "shapedparts.cli", *argv],
                capture_output=True, text=True, timeout=60,
            )
            assert result.returncode == 2 and result.stdout == "", argv
            assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, argv
        result = subprocess.run(
            [sys.executable, "-m", "shapedparts.cli", "count", "-h"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0 and result.stdout.startswith("usage: shapedparts count")


REPORT_COMMANDS = {
    "vertices.json": ["vertices", "--with-partitions"],
    "vertices.csv": ["vertices", "--format", "csv"],
    "count.json": ["count"],
}


class TestReportBytes:
    """Reports pinned byte for byte in tests/data/reports, so that a change in
    candidate order, witness grouping or formatting shows. The instances: the
    two fixtures, splitting.json, a k = 2 instance with denominators up to 7
    and a repeated column, and entries of 1e400 (part sums past int64); and
    the solve report of splitting.json and the 50-instance seeded check."""

    @pytest.mark.parametrize("stem", ["cube3", "permutohedron3", "splitting", "rational2", "huge3"])
    @pytest.mark.parametrize("report", sorted(REPORT_COMMANDS))
    def test_bytes_match_the_recorded_report(self, tmp_path, capsys, stem, report):
        target = tmp_path / report
        args = REPORT_COMMANDS[report] + [str(DATA / f"{stem}.json"), "--output", str(target)]
        assert run_cli(args, capsys)[0] == 0
        assert target.read_bytes() == (DATA / "reports" / f"{stem}.{report}").read_bytes()

    @pytest.mark.parametrize("args, recorded", [
        (["solve", str(DATA / "splitting.json")], "splitting.solve.json"),
        (["check", "--random", "50", "--seed", "7"], "random7.check.json"),
    ])
    def test_more_commands_match_their_recorded_reports(self, tmp_path, capsys, args, recorded):
        target = tmp_path / recorded
        assert run_cli(args + ["--output", str(target)], capsys)[0] == 0
        assert target.read_bytes() == (DATA / "reports" / recorded).read_bytes()
