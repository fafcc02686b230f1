import contextlib
import io
import json
import os
import select
import signal
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import HUGE_PROBLEMS, edge_problems, objective_definition
from shapedparts import cli
from shapedparts.brute import brute_solve, enumerate_all_partitions
from shapedparts.errors import DimensionError, OracleError, ProblemError
from shapedparts.linalg import Matrix
from shapedparts.objectives import (
    ColumnPowerObjective,
    DiagonalPowerObjective,
    ExternalOracle,
    LinearObjective,
    MaxCutObjective,
    Objective,
    encode_wire_scalar,
    parse_wire_scalar,
)
from shapedparts.partitions import PartSums, ShapeFamily, partition_matrix
from shapedparts.solver import solve

ORACLE = [sys.executable, str(Path(__file__).parent / "data" / "square_oracle.py")]


class TestLinear:
    def test_inner_product(self):
        objective = LinearObjective(Matrix([[1, 0]]))
        assert objective.evaluate(Matrix([[6, 0]])) == 6

    def test_mixed_signs(self):
        objective = LinearObjective(Matrix([[1, -2], [0, 3]]))
        assert objective.evaluate(Matrix([["1/2", 1], [4, "1/3"]])) == F(1, 2) - 2 + 1

    def test_shape_check(self):
        objective = LinearObjective(Matrix([[1, 0]]))
        with pytest.raises(DimensionError):
            objective.evaluate(Matrix([[1], [2]]))
        with pytest.raises(DimensionError):
            objective.check_compatible(Matrix([[1, 2], [3, 4]]), 2)


class TestDiagonalPower:
    def test_splitting_evaluation(self):
        objective = DiagonalPowerObjective(2)
        matrix = Matrix([["3/5", "1/3"], [2, "7/10"]])
        assert objective.evaluate(matrix) == F(9, 25) + F(49, 100)

    def test_absolute_value_applies(self):
        assert DiagonalPowerObjective(3).evaluate(Matrix([[-2]])) == 8

    def test_needs_square(self):
        with pytest.raises(DimensionError):
            DiagonalPowerObjective(2).evaluate(Matrix([[1, 2, 3], [4, 5, 6]]))
        with pytest.raises(DimensionError):
            DiagonalPowerObjective(2).check_compatible(Matrix([[1, 2]]), 2)

    def test_q_validated(self):
        with pytest.raises(DimensionError):
            DiagonalPowerObjective(0)


class TestColumnPower:
    def test_sum_of_even_powers(self):
        objective = ColumnPowerObjective(2)
        assert objective.evaluate(Matrix([[1, -2], ["1/2", 0]])) == 1 + 4 + F(1, 4)

    def test_q_must_be_even_positive(self):
        with pytest.raises(DimensionError):
            ColumnPowerObjective(3)
        with pytest.raises(DimensionError):
            ColumnPowerObjective(0)


class TestMaxCut:
    def test_triangle_cut(self):
        objective = MaxCutObjective([(1, 2), (1, 3), (2, 3)])
        indicator = Matrix([[1, 0], [0, 1], [0, 1]])
        assert objective.evaluate(indicator) == 2

    def test_empty_side(self):
        objective = MaxCutObjective([(1, 2)])
        assert objective.evaluate(Matrix([[0, 1], [0, 1]])) == 0

    def test_validation(self):
        with pytest.raises(DimensionError):
            MaxCutObjective([(1, 1)])
        with pytest.raises(DimensionError):
            MaxCutObjective([(1, 2), (2, 1)])
        objective = MaxCutObjective([(1, 4)])
        with pytest.raises(DimensionError):
            objective.check_compatible(Matrix.identity(3), 2)
        with pytest.raises(DimensionError):
            MaxCutObjective([(1, 2)]).check_compatible(Matrix([[1, 0], [0, 2]]), 2)
        with pytest.raises(DimensionError):
            MaxCutObjective([(1, 2)]).check_compatible(Matrix.identity(2), 3)

    def test_non_indicator_rejected(self):
        with pytest.raises(DimensionError):
            MaxCutObjective([(1, 2)]).evaluate(Matrix([[2, 0], [0, 1]]))


# key entries and scales past int64, and costs with denominators past 2^61
ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))
SCALES = st.one_of(st.integers(1, 6), st.integers(2 ** 61, 2 ** 64))
COSTS = st.one_of(
    st.integers(-3, 3),
    st.builds(F, st.integers(-2 ** 64, 2 ** 64), st.integers(2 ** 61, 2 ** 62)),
)


def key_matrix(key, scale, k, p):
    """The k x p matrix of a key, by definition."""
    return Matrix([[F(x, scale) for x in key[r * p:(r + 1) * p]] for r in range(k)], ncols=p)


@st.composite
def key_batches(draw):
    """(keys, scale, k, p, cost): up to five keys of k x p matrices, k = 0
    included, and a k x p cost."""
    k = draw(st.integers(0, 3))
    p = draw(st.integers(1, 3))
    scale = draw(SCALES)
    keys = draw(st.lists(st.tuples(*[ENTRIES] * (k * p)), max_size=5))
    cost = Matrix([draw(st.lists(COSTS, min_size=p, max_size=p)) for _ in range(k)], ncols=p)
    return keys, scale, k, p, cost


@st.composite
def indicator_batches(draw):
    """(keys, scale, n, edges): keys of n x 2 matrices whose first column
    is 0/1, and a graph on [n]."""
    n = draw(st.integers(0, 5))
    scale = draw(SCALES)
    row = st.tuples(st.sampled_from([0, scale]), ENTRIES)
    keys = draw(st.lists(st.lists(row, min_size=n, max_size=n), max_size=5))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return [tuple(x for pair in key for x in pair) for key in keys], scale, n, edges


def builtin_objectives(cost):
    k, p = cost.shape
    zero = Matrix([[0] * p for _ in range(k)], ncols=p)
    return [
        LinearObjective(cost), LinearObjective(zero),
        ColumnPowerObjective(2), ColumnPowerObjective(4),
        DiagonalPowerObjective(1), DiagonalPowerObjective(3),
    ]


def assert_batch_matches_definition(objective, keys, scale, p, matrices):
    """evaluate_keys gives the Fraction definition at every matrix, or the
    DimensionError that the definition raises."""
    try:
        expected = [objective_definition(objective, m) for m in matrices]
    except DimensionError:
        with pytest.raises(DimensionError):
            objective.evaluate_keys(keys, scale, p)
    else:
        assert objective.evaluate_keys(keys, scale, p) == expected


def admissible_keys(a, p, family):
    """The keys, scale and Fraction part-sum matrices of every admissible
    partition, in the brute-force walk's order."""
    scale = PartSums(a, p).scale
    matrices = [partition_matrix(a, pi) for pi in enumerate_all_partitions(a.ncols, p, family)]
    keys = [tuple(x.numerator * (scale // x.denominator) for x in m.flatten()) for m in matrices]
    return keys, scale, matrices


class RecordingObjective(Objective):
    """A user objective: records every matrix it is asked about."""

    def __init__(self):
        self.queried = []

    def evaluate(self, matrix):
        self.queried.append(matrix)
        return F(len(self.queried))


class TestEvaluateKeys:
    @settings(max_examples=80, deadline=None, database=None)
    @given(key_batches())
    @example(([(2 ** 70, -2 ** 70)], 2 ** 61, 1, 2, Matrix([[0, 0]])))
    # each of these fits int64 entrywise, but its sum or product does not
    @example(([(2 ** 62, 2 ** 62)], 1, 1, 2, Matrix([[3, 3]])))
    @example(([(3037000499, -3037000499)], 1, 1, 2, Matrix([[1, 1]])))
    @example(([(2 ** 21 - 1, 0, 0, 2 ** 21 - 1)], 1, 2, 2, Matrix([[1, 0], [0, 1]])))
    @example(([], 3, 2, 2, Matrix([[1, 0], [0, 1]])))
    @example(([(), ()], 5, 0, 3, Matrix([], ncols=3)))
    def test_builtins_match_definition(self, batch):
        keys, scale, k, p, cost = batch
        matrices = [key_matrix(key, scale, k, p) for key in keys]
        for objective in builtin_objectives(cost):
            assert_batch_matches_definition(objective, keys, scale, p, matrices)

    @settings(max_examples=40, deadline=None, database=None)
    @given(edge_problems())
    @example((Matrix([[]], ncols=0), 3, ShapeFamily.all_shapes(0, 3), Matrix([[1, -2, 3]])))
    def test_builtins_match_definition_on_part_sums(self, problem):
        a, p, family, cost = problem
        keys, scale, matrices = admissible_keys(a, p, family)
        for objective in builtin_objectives(cost):
            assert_batch_matches_definition(objective, keys, scale, p, matrices)

    @pytest.mark.parametrize("problem", HUGE_PROBLEMS)
    def test_builtins_match_definition_past_int64(self, problem):
        a, p, family = problem
        cost = Matrix([[(-1) ** (r + j) * (j + 1) for j in range(p)] for r in range(a.nrows)])
        keys, scale, matrices = admissible_keys(a, p, family)
        for objective in builtin_objectives(cost):
            assert_batch_matches_definition(objective, keys, scale, p, matrices)

    @settings(max_examples=60, deadline=None, database=None)
    @given(indicator_batches())
    def test_max_cut_matches_definition(self, batch):
        keys, scale, n, edges = batch
        matrices = [key_matrix(key, scale, n, 2) for key in keys]
        objective = MaxCutObjective(edges)
        assert objective.evaluate_keys(keys, scale, 2) == [
            objective_definition(objective, m) for m in matrices
        ]

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_max_cut_matches_definition_on_part_sums(self, n):
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u + v) % 3]
        objective = MaxCutObjective(edges)
        keys, scale, matrices = admissible_keys(Matrix.identity(n), 2, ShapeFamily.all_shapes(n, 2))
        assert objective.evaluate_keys(keys, scale, 2) == [
            objective_definition(objective, m) for m in matrices
        ]

    @settings(max_examples=60, deadline=None, database=None)
    @given(indicator_batches(), st.data())
    def test_max_cut_rejects_a_first_column_that_is_not_0_1(self, batch, data):
        keys, scale, n, edges = batch
        if not keys or not n:
            keys, n = [(0, 0)], 1
        bad = data.draw(ENTRIES.filter(lambda x: x not in (0, scale)))
        which = data.draw(st.integers(0, len(keys) - 1))
        row = data.draw(st.integers(0, n - 1))
        key = list(keys[which])
        key[2 * row] = bad
        keys = keys[:which] + [tuple(key)] + keys[which + 1:]
        objective = MaxCutObjective(edges)
        with pytest.raises(DimensionError, match="0/1 first column"):
            objective_definition(objective, key_matrix(key, scale, n, 2))
        with pytest.raises(DimensionError, match="0/1 first column"):
            objective.evaluate_keys(keys, scale, 2)

    def test_empty_key_list(self):
        for objective in builtin_objectives(Matrix([[1, 2]])) + [MaxCutObjective([(1, 2)])]:
            assert objective.evaluate_keys([], 7, 2) == []
        assert RecordingObjective().evaluate_keys([], 7, 2) == []

    def test_default_asks_evaluate_once_per_key_in_order(self):
        objective = RecordingObjective()
        assert objective.evaluate_keys([(1, 2), (3, 4), (1, 2)], 2, 2) == [1, 2, 3]
        assert objective.queried == [Matrix([["1/2", 1]]), Matrix([["3/2", 2]]),
                                     Matrix([["1/2", 1]])]
        assert objective.queried[0] is objective.queried[2]  # built once


class TestWireScalars:
    def test_encode(self):
        assert encode_wire_scalar(F(6)) == 6
        assert encode_wire_scalar(F(17, 20)) == "17/20"

    def test_encode_beyond_digit_limit(self):
        assert encode_wire_scalar(F(10 ** 4299)) == 10 ** 4299
        with pytest.raises(ProblemError, match="digits"):
            encode_wire_scalar(F(10 ** 4300))
        with pytest.raises(ProblemError, match="digits"):
            encode_wire_scalar(F(1, 10 ** 4300))

    def test_parse_forms(self):
        assert parse_wire_scalar("17") == 17
        assert parse_wire_scalar('"17/20"') == F(17, 20)
        assert parse_wire_scalar('"0.6"') == F(3, 5)
        assert parse_wire_scalar("17/20") == F(17, 20)
        assert parse_wire_scalar("0.25") == F(1, 4)

    def test_parse_garbage(self):
        with pytest.raises(ValueError):
            parse_wire_scalar("")
        with pytest.raises(ValueError):
            parse_wire_scalar("[1, 2]")
        with pytest.raises(ValueError):
            parse_wire_scalar("true")
        with pytest.raises(ValueError):
            parse_wire_scalar("zebra")
        with pytest.raises(ValueError, match="depth"):
            parse_wire_scalar("[" * 100_000)


COUNTER = "import sys\nfor i, line in enumerate(sys.stdin, 1):\n    print(i, flush=True)\n"
# appends every line it reads to the file named by its argument
RECORDER = (
    "import sys\n"
    "with open(sys.argv[1], 'a') as log:\n"
    "    for line in sys.stdin:\n"
    "        log.write(line)\n"
    "        log.flush()\n"
    "        print(len(line), flush=True)\n"
)


def run_isolated(body, *args: str) -> None:
    """Run body(*args), a module-level function of this file, in a child
    interpreter with a 60 s timeout, so an oracle exchange that blocks
    fails the test instead of hanging the suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).parent), env.get("PYTHONPATH")])
    )
    script = f"import sys\nfrom test_objectives import {body.__name__}\n{body.__name__}(*sys.argv[1:])\n"
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert result.returncode == 0, result.stderr


def _round_trip():
    with ExternalOracle(ORACLE) as oracle:
        assert oracle.evaluate(Matrix([[1, 2], [3, 4]])) == 30
        assert oracle.evaluate(Matrix([["1/2", 0], [0, 0]])) == F(1, 4)


def _fractional_query_encoding():
    with ExternalOracle(ORACLE) as oracle:
        assert oracle.evaluate(Matrix([["3/5", "3/10"], ["2/5", "7/10"]])) == (
            F(9, 25) + F(9, 100) + F(4, 25) + F(49, 100)
        )


def _repeated_matrix_is_answered_from_the_first_reply():
    with ExternalOracle([sys.executable, "-c", COUNTER]) as oracle:
        assert oracle.evaluate(Matrix([[1, 2]])) == 1
        assert oracle.evaluate(Matrix([[3, 4]])) == 2
        assert oracle.evaluate(Matrix([[1, 2]])) == 1
        assert oracle.evaluate(Matrix([["1/2", 4]])) == 3
        # keys over scale 2: [[1, 2]] and [[1/2, 4]] are recorded, [[5/2, 3]] is new
        assert oracle.evaluate_keys([(2, 4), (5, 6), (2, 4), (1, 8)], 2, 2) == [1, 4, 1, 3]
        # a matrix past the digit limit stops the batch, after the ones before it
        with pytest.raises(ProblemError, match="digits"):
            oracle.evaluate_keys([(7, 8), (10 ** 4300, 1)], 1, 2)
        assert oracle._replies[Matrix([[7, 8]])] == 5


def _exited_oracle_is_not_restarted():
    with ExternalOracle(["sh", "-c", "read x; echo 1"]) as oracle:
        assert oracle.evaluate(Matrix([[1]])) == 1
        oracle._process.wait(timeout=10)
        assert oracle.evaluate(Matrix([[1]])) == 1  # from the record
        with pytest.raises(OracleError, match="exited before the next query"):
            oracle.evaluate(Matrix([[2]]))


def _chatty_stderr_does_not_block():
    # 4 KiB of stderr per query fills a 64 KiB pipe after 16 queries
    chatty = (
        "import sys\n"
        "for line in sys.stdin:\n"
        "    sys.stderr.write('x' * 4096 + '\\n')\n"
        "    sys.stderr.flush()\n"
        "    print(1, flush=True)\n"
    )
    with ExternalOracle([sys.executable, "-c", chatty]) as oracle:
        assert sum(oracle.evaluate(Matrix([[i]])) for i in range(100)) == 100
        assert oracle.evaluate_keys([(i,) for i in range(200)], 1, 1) == [1] * 200


def _transcript_is_one_query_per_matrix(workdir):
    a = Matrix([["1/3", 2, "5/7", 4, "11/13", 6], [7, "-8/3", 9, 1, "2/9", 3]])
    p, family = 3, ShapeFamily.all_shapes(6, 3)
    batched, single = Path(workdir) / "batched", Path(workdir) / "single"
    with ExternalOracle([sys.executable, "-c", RECORDER, str(batched)]) as oracle:
        best = solve(a, p, family, oracle).best_value
        solve_bytes = batched.stat().st_size
        brute_best = brute_solve(a, p, family, oracle)  # as check asks, on one record
    # each batch holds at most PIPE_BUF bytes, so solve's queries span at least 3
    assert solve_bytes > 2 * select.PIPE_BUF
    recording = RecordingObjective()
    solve(a, p, family, recording)
    solve_matrices = list(dict.fromkeys(recording.queried))
    brute_solve(a, p, family, recording)
    with ExternalOracle([sys.executable, "-c", RECORDER, str(single)]) as oracle:
        values = {m: oracle.evaluate(m) for m in dict.fromkeys(recording.queried)}
    assert batched.read_bytes() == single.read_bytes()
    assert best == max(values[m] for m in solve_matrices)
    assert brute_best == max(values.values())


def _line_longer_than_pipe_buf_goes_alone():
    lengths = "import sys\nfor line in sys.stdin:\n    print(len(line), flush=True)\n"
    huge = 10 ** 4200
    keys = [(1, 2), (huge, huge), (3, 4), (huge, 1), (1, 2)]
    with ExternalOracle([sys.executable, "-c", lengths]) as oracle:
        # [[1,2]] and [[3,4]] are 8 bytes with the newline; the others exceed PIPE_BUF
        assert oracle.evaluate_keys(keys, 1, 2) == [8, 2 * 4201 + 6, 8, 4201 + 7, 8]


def _large_replies_do_not_block():
    sys.set_int_max_str_digits(0)  # the replies are 64 KiB integers
    large = "import sys\nfor i, line in enumerate(sys.stdin, 1):\n    print(str(i) + '0' * 65535, flush=True)\n"
    # 20 queries of 4 KB: more than a 64 KiB pipe and the oracle's read
    # buffer hold, in case all of them were written before any reply is read
    keys = [(i * 10 ** 4000,) for i in range(1, 21)]
    with ExternalOracle([sys.executable, "-c", large]) as oracle:
        values = oracle.evaluate_keys(keys, 1, 1)
    assert values == [i * 10 ** 65535 for i in range(1, 21)]


def _oracle_exiting_mid_batch_fails(workdir):
    two_then_exit = (
        "import sys\n"
        "for _ in range(2):\n"
        "    sys.stdin.readline()\n"
        "    print(1, flush=True)\n"
        "sys.exit(3)\n"
    )
    command = [sys.executable, "-c", two_then_exit]
    with ExternalOracle(command) as oracle:
        with pytest.raises(OracleError, match="gave no reply.*code 3"):
            oracle.evaluate_keys([(i,) for i in range(5)], 1, 1)
    problem = Path(workdir) / "problem.json"
    problem.write_text(json.dumps({
        "matrix": [[1, 2, 3, 4]], "p": 2, "shapes": {"type": "all"},
        "objective": {"type": "external", "cmd": command},
    }))
    for _ in range(6):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["solve", str(problem)])
        assert code == 4 and "code 3" in err.getvalue(), err.getvalue()


def _deeply_nested_reply_is_garbage(workdir):
    # nesting past the JSON decoder's depth limit raises RecursionError
    nested = "import sys\nfor line in sys.stdin:\n    print('[' * 100_000, flush=True)\n"
    problem = Path(workdir) / "problem.json"
    problem.write_text(json.dumps({
        "matrix": [[1, 2, 3]], "p": 2, "shapes": {"type": "all"},
        "objective": {"type": "external", "cmd": [sys.executable, "-c", nested]},
    }))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(err):
        code = cli.main(["solve", str(problem)])
    assert code == 4 and out.getvalue() == "", err.getvalue()
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert "replied with garbage" in err.getvalue()


class TestExternalOracle:
    def test_round_trip(self):
        run_isolated(_round_trip)

    def test_fractional_query_encoding(self):
        run_isolated(_fractional_query_encoding)

    def test_repeated_matrix_is_answered_from_the_first_reply(self):
        run_isolated(_repeated_matrix_is_answered_from_the_first_reply)

    def test_dead_process(self):
        with ExternalOracle(["/bin/false"]) as oracle:
            with pytest.raises(OracleError):
                oracle.evaluate(Matrix([[1]]))

    def test_exited_oracle_is_not_restarted(self):
        run_isolated(_exited_oracle_is_not_restarted)

    def test_garbage_reply(self):
        with ExternalOracle([sys.executable, "-c", "print('pelican'); import sys; sys.stdout.flush(); sys.stdin.read()"]) as oracle:
            with pytest.raises(OracleError):
                oracle.evaluate(Matrix([[1]]))

    def test_chatty_stderr_does_not_block(self):
        run_isolated(_chatty_stderr_does_not_block)

    def test_transcript_is_one_query_per_matrix(self, tmp_path):
        run_isolated(_transcript_is_one_query_per_matrix, str(tmp_path))

    def test_line_longer_than_pipe_buf_goes_alone(self):
        run_isolated(_line_longer_than_pipe_buf_goes_alone)

    def test_large_replies_do_not_block(self):
        run_isolated(_large_replies_do_not_block)

    def test_oracle_exiting_mid_batch_fails(self, tmp_path):
        run_isolated(_oracle_exiting_mid_batch_fails, str(tmp_path))

    def test_deeply_nested_reply_exit_4(self, tmp_path):
        run_isolated(_deeply_nested_reply_is_garbage, str(tmp_path))

    def test_death_note_quotes_stderr_tail(self):
        dying = "import sys; sys.stderr.write('a' * 3000 + 'TAILMARK'); sys.exit(3)"
        with ExternalOracle([sys.executable, "-c", dying]) as oracle:
            with pytest.raises(OracleError) as caught:
                oracle.evaluate(Matrix([[1]]))
        message = str(caught.value)
        assert "code 3" in message and message.endswith("TAILMARK)")
        assert "a" * 500 not in message

    def test_missing_binary(self):
        with ExternalOracle(["/nonexistent/oracle"]) as oracle:
            with pytest.raises(OracleError):
                oracle.evaluate(Matrix([[1]]))

    def test_killed_oracle_is_reaped(self, monkeypatch):
        # The oracle ignores SIGTERM and sleeps once its stdin closes, so close
        # must kill it; the timed wait is made to time out at once.
        stubborn = ("import signal, sys, time; signal.signal(signal.SIGTERM, signal.SIG_IGN); "
                    "print(1, flush=True); sys.stdin.read(); time.sleep(60)")
        oracle = ExternalOracle([sys.executable, "-c", stubborn])
        assert oracle.evaluate(Matrix([[1]])) == 1
        process = oracle._process
        wait = process.wait

        def impatient_wait(timeout=None):
            if timeout is not None:
                raise subprocess.TimeoutExpired(process.args, timeout)
            return wait()

        monkeypatch.setattr(process, "wait", impatient_wait)
        oracle.close()
        assert process.returncode == -signal.SIGKILL
